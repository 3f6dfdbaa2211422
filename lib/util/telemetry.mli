(** Zero-dependency observability substrate for the whole stack:
    monotonic {e counters}, peak-tracking {e gauges}, log-bucketed
    latency {e histograms} and nestable timed {e spans}, with
    JSON-lines export.

    The paper's headline engineering claim is that the size-threshold
    guard makes BDD intractability cost "a small constant overhead"
    (§4, §5.2); this module is how the repo {e measures} that claim —
    apply-cache hit rates, peak live nodes, which §4.4 rewrite fired,
    when the budget tripped — instead of only observing wall time.

    Telemetry is {b disabled by default} and every recording entry
    point is a no-op fast path behind a single boolean load, so
    instrumented hot code pays (almost) nothing when it is off.  All
    state is global to the process and guarded by one internal lock,
    so worker domains of the validation {!Pool} can record
    concurrently with the main domain; span nesting is tracked per
    domain.  {!reset} clears everything between measurements. *)

(** {1 JSON} *)

(** A tiny self-contained JSON value, so the export format needs no
    external dependency. *)
type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of json list
  | Obj of (string * json) list

module Json : sig
  exception Parse_error of string

  val to_string : json -> string
  (** Compact one-line serialisation (valid JSON): a non-finite
      [Float] is written as [null]. *)

  val of_string : string -> json
  (** Parse one JSON value; a [\uXXXX] escape decodes to UTF-8, a
      surrogate pair to one character.  Numbers follow JSON's grammar;
      one without fraction or exponent that fits an [int] is an
      [Int], any other a [Float].  @raise Parse_error on text that is
      not JSON: a surrogate outside a pair, a raw control byte in a
      string, or a number such as [+1], [01], [5.] or [.5]. *)

  val member : string -> json -> json option
  (** Field lookup on [Obj]; [None] otherwise. *)
end

(** {1 Switch} *)

val enable : unit -> unit
(** Turn recording on (also resets the event clock's epoch). *)

val disable : unit -> unit

val enabled : unit -> bool

val on : bool ref
(** The switch itself, for hot-path guards where even a call to
    {!enabled} is too much ([if !Telemetry.on then ...] is a single
    load).  Treat as read-only; flip it via {!enable}/{!disable}. *)

val reset : unit -> unit
(** Zero every counter/gauge/histogram and drop all recorded events.
    Registered instrument handles stay valid. *)

(** {1 Instruments} *)

type counter

val counter : string -> counter
(** Intern the counter named [name] (same handle for the same name). *)

val incr : ?by:int -> counter -> unit
(** Add [by] (default 1) when enabled; no-op otherwise. *)

val counter_value : counter -> int

type gauge

val gauge : string -> gauge

val gauge_set : gauge -> int -> unit
(** Record the current value and track the peak seen since {!reset}. *)

val gauge_value : gauge -> int

val gauge_peak : gauge -> int

type histogram

val histogram : string -> histogram

val observe : histogram -> float -> unit
(** Record one measurement (log₂-bucketed; any unit, conventionally
    milliseconds). *)

val histogram_count : histogram -> int

val histogram_sum : histogram -> float

val histogram_buckets : histogram -> (float * int) list
(** Non-empty buckets as [(lower_bound, count)], ascending. *)

(** {1 Spans and events} *)

val with_span : string -> (unit -> 'a) -> 'a
(** Time [f ()] and record a ["span"] event carrying the span's name,
    its slash-joined nesting path and its duration; also feeds the
    histogram ["span.<name>"].  Nesting is tracked by a stack, and the
    event is recorded even when [f] raises.  When disabled this is
    exactly [f ()]. *)

val event : string -> (string * json) list -> unit
(** Record an ad-hoc event of the given kind with extra fields. *)

val events : unit -> json list
(** Every recorded event, oldest first.  Each is an [Obj] with at
    least [seq] (int), [t_ms] (float since {!enable}/{!reset}) and
    [kind] (string); spans add [name], [path], [ms]. *)

val dropped_events : unit -> int
(** Events discarded because the in-memory buffer cap was reached. *)

(** {1 Export} *)

val jsonl : unit -> string
(** The full dump as JSON-lines: every event in order, then one
    summary line per counter ([{"kind":"counter","name",...,"value"}]),
    gauge ([... "value","peak"]) and histogram
    ([... "count","sum","min","max","buckets":[[lo,count],...]]),
    sorted by name for determinism. *)

val write_jsonl : string -> unit
(** Write {!jsonl} to a file. *)

val print_summary : out_channel -> unit
(** Human-readable digest of all non-zero instruments and span
    timings. *)

(* Per-layer readings the workloads share: the kernel's counters and
   the checker's stage spans. *)

(* Kernel counters, read only between timed sections:
   [Manager.stats] walks every unique-table bucket. *)
type kernel = {
  misses : int;
  hits : int;
  cache_hits : int;
  cache_lookups : int;
  flushes : int;
  trips : int;
  ops : (string * int) list;  (** per [Ops] entry point *)
}

let of_stats (s : Fcv_bdd.Manager.stats) =
  {
    misses = s.Fcv_bdd.Manager.unique_misses;
    hits = s.Fcv_bdd.Manager.unique_hits;
    cache_hits = s.Fcv_bdd.Manager.op_cache_hits;
    cache_lookups = s.Fcv_bdd.Manager.op_cache_lookups;
    flushes = s.Fcv_bdd.Manager.op_cache_flushes;
    trips = s.Fcv_bdd.Manager.budget_trips;
    ops = s.Fcv_bdd.Manager.op_calls;
  }

(* Field-wise [a + sign * b]. *)
let combine sign a b =
  let ( +. ) x y = x + (sign * y) in
  {
    misses = a.misses +. b.misses;
    hits = a.hits +. b.hits;
    cache_hits = a.cache_hits +. b.cache_hits;
    cache_lookups = a.cache_lookups +. b.cache_lookups;
    flushes = a.flushes +. b.flushes;
    trips = a.trips +. b.trips;
    ops =
      List.map (fun (name, n) -> (name, n +. Option.value ~default:0 (List.assoc_opt name b.ops))) a.ops;
  }

(* One reading per manager, in a fixed order (one per shard). *)
type reading = (Fcv_bdd.Manager.t * kernel) list

let read mgrs : reading = List.map (fun m -> (m, of_stats (Fcv_bdd.Manager.stats m))) mgrs

(* The work between two readings, summed over managers.  A level
   recycle swaps in a fresh manager whose counters start at zero; then
   only its own count is known, and the old manager's work since
   [before] is lost. *)
let delta ~(before : reading) ~(after : reading) =
  let each (m0, k0) (m1, k1) = if m0 == m1 then combine (-1) k1 k0 else k1 in
  match List.map2 each before after with
  | [] -> invalid_arg "Layers.delta: no managers"
  | d :: ds -> List.fold_left (combine 1) d ds

let per n ~passes = float (max 0 n) /. float (max 1 passes)

(* The kernel's per-pass metrics over [passes] passes, into run [r];
   the op counts are [set_ops]'s. *)
let set_kernel r (d : kernel) ~passes =
  let set = Measure.metric r in
  set "bdd.nodes_allocated" (per d.misses ~passes);
  set "bdd.unique_hit_ratio" (Measure.ratio (float d.hits) (float (d.hits + d.misses)));
  set "bdd.cache_hit_ratio" (Measure.ratio (float d.cache_hits) (float d.cache_lookups));
  set "bdd.cache_flushes" (per d.flushes ~passes);
  set "bdd.budget_trips" (per d.trips ~passes)

(* Op calls per pass: the kernel counts them only while the program's
   telemetry is on. *)
let set_ops r (d : kernel) ~passes =
  List.iter (fun (name, n) -> Measure.metric r ("bdd.op_" ^ name) (per n ~passes)) d.ops

(* The checker's stage spans, each through [per] (its total ms to the
   metric's value). *)
let set_stages r ~per =
  List.iter
    (fun stage -> Measure.metric r ("checker.stage_" ^ stage ^ "_ms") (per stage))
    [ "typing"; "rewrite"; "compile"; "verdict" ]

(* Everything the checker's own spans cover: the stages plus the FD
   fast path and the fallback engines. *)
let checker_span_ms () =
  List.fold_left
    (fun acc name -> acc +. Measure.span_ms name)
    0.
    [ "typing"; "rewrite"; "compile"; "verdict"; "fd_fast_path"; "fallback" ]


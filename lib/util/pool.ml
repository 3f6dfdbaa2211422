(** Fixed-size domain worker pool.  One mutex + condition pair guards
    the FIFO job queue, whose only jobs are {!run_ordered}'s drainers.
    Workers drain the queue before exiting on shutdown, which is what
    makes shutdown graceful rather than lossy. *)

type t = {
  name : string;
  mutable workers : unit Domain.t array;  (** set once, right after spawn *)
  mutex : Mutex.t;  (** guards [queue], [closing] and [joined] *)
  nonempty : Condition.t;
  queue : (unit -> unit) Queue.t;  (** jobs never raise *)
  mutable closing : bool;
  mutable joined : bool;
}

let size t = Array.length t.workers

(* Worker loop: wait for work, run it outside the lock, exit only once
   the pool is closing AND the queue is empty (graceful drain). *)
let worker t () =
  let rec loop () =
    Mutex.lock t.mutex;
    while Queue.is_empty t.queue && not t.closing do
      Condition.wait t.nonempty t.mutex
    done;
    if Queue.is_empty t.queue then Mutex.unlock t.mutex
    else begin
      let job = Queue.pop t.queue in
      Mutex.unlock t.mutex;
      job ();
      loop ()
    end
  in
  loop ()

let create ?(name = "pool") ~jobs () =
  if jobs < 1 || jobs > 128 then
    invalid_arg (Printf.sprintf "Pool.create: jobs must be in [1, 128] (got %d)" jobs);
  let t =
    {
      name;
      workers = [||];
      mutex = Mutex.create ();
      nonempty = Condition.create ();
      queue = Queue.create ();
      closing = false;
      joined = false;
    }
  in
  t.workers <- Array.init jobs (fun _ -> Domain.spawn (worker t));
  if Telemetry.enabled () then
    Telemetry.event "pool.create"
      [ ("name", Telemetry.String name); ("jobs", Telemetry.Int jobs) ];
  t

(* Queue a job; false once the pool is shutting down. *)
let enqueue t job =
  Mutex.lock t.mutex;
  let accepted = not t.closing in
  if accepted then begin
    Queue.push job t.queue;
    Condition.signal t.nonempty
  end;
  Mutex.unlock t.mutex;
  accepted

(* Claimed-batch scheduler: the batch is an array of tasks plus one
   atomic claim cursor walking a caller-chosen execution order.  Every
   drainer (min(workers, tasks) of them are enqueued) loops
   fetch-and-add → run → store, so a worker that lands on a cheap task
   immediately claims the next one while a colleague grinds through a
   pathological constraint — no static partition, no per-task future
   traffic, and the expensive-first [order] means the long poles start
   first instead of serialising the tail. *)
let run_ordered t ?order tasks =
  let n = Array.length tasks in
  if n = 0 then [||]
  else begin
    let order =
      match order with
      | None -> Array.init n Fun.id
      | Some o ->
        if Array.length o <> n then
          invalid_arg "Pool.run_ordered: order length mismatch";
        let seen = Array.make n false in
        Array.iter
          (fun i ->
            if i < 0 || i >= n || seen.(i) then
              invalid_arg "Pool.run_ordered: order is not a permutation";
            seen.(i) <- true)
          o;
        o
    in
    (* per-slot atomics so every store is a release the awaiting caller
       synchronises with — no reliance on the completion signal alone *)
    let results = Array.init n (fun _ -> Atomic.make None) in
    let cursor = Atomic.make 0 in
    let remaining = Atomic.make n in
    let m = Mutex.create () and settled = Condition.create () and finished = ref false in
    let drain () =
      let rec loop () =
        let k = Atomic.fetch_and_add cursor 1 in
        if k < n then begin
          let i = order.(k) in
          let r =
            match Telemetry.with_span "pool.task" tasks.(i) with
            | v ->
              if Telemetry.enabled () then Telemetry.incr (Telemetry.counter "pool.tasks.done");
              Ok v
            | exception e ->
              let bt = Printexc.get_raw_backtrace () in
              if Telemetry.enabled () then
                Telemetry.incr (Telemetry.counter "pool.tasks.failed");
              Error (e, bt)
          in
          Atomic.set results.(i) (Some r);
          if Atomic.fetch_and_add remaining (-1) = 1 then begin
            Mutex.lock m;
            finished := true;
            Condition.broadcast settled;
            Mutex.unlock m
          end;
          loop ()
        end
      in
      loop ()
    in
    (* one queued drainer runs the whole batch, so a shutdown between
       two enqueues loses nothing *)
    let queued = ref 0 in
    for _ = 1 to min (size t) n do
      if enqueue t drain then incr queued
    done;
    if !queued = 0 then invalid_arg (Printf.sprintf "Pool.run_ordered: %s is shut down" t.name);
    Mutex.lock m;
    while not !finished do
      Condition.wait settled m
    done;
    Mutex.unlock m;
    (* every task settled before we re-raise, so a failure does not
       leave tasks running against state the caller tears down next *)
    let first_error = ref None in
    let out =
      Array.map
        (fun slot ->
          match Atomic.get slot with
          | Some (Ok v) -> Some v
          | Some (Error eb) ->
            if !first_error = None then first_error := Some eb;
            None
          | None -> assert false)
        results
    in
    match !first_error with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> Array.map Option.get out
  end

let shutdown t =
  Mutex.lock t.mutex;
  t.closing <- true;
  Condition.broadcast t.nonempty;
  let do_join = not t.joined in
  t.joined <- true;
  (* join outside the lock: an exiting worker needs the mutex *)
  Mutex.unlock t.mutex;
  if do_join then Array.iter Domain.join t.workers

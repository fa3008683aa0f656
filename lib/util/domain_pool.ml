(* How long a waiting domain polls before it parks: a few park/wake
   round trips (an empty batch that parks and wakes a worker through a
   mutex and condition variable took 17.5 us p50 on a 2-core Linux
   container). A handoff that comes within the budget costs a cache-line
   transfer instead of a futex wake-up; one that comes later pays the
   wake-up it would have paid anyway, so a longer spin would only burn
   the core. *)
let spin_ns = 50_000

(* [Clock.now_ns] allocates nothing, and a spin loop must not allocate
   (every minor collection stops every domain). *)
let now () = Int64.to_int (Clock.now_ns ())

(* Where one waiter parks once its spin runs out. *)
type spot = { parked : bool Atomic.t; mu : Mutex.t; cv : Condition.t }

let spot () =
  { parked = Atomic.make false; mu = Mutex.create (); cv = Condition.create () }

(* Returns once [ready ()] holds: polls for up to [spin_ns] when [spin],
   then parks on [s]. The waker makes [ready] true, then calls [wake s].
   The waiter sets [parked] under [s.mu] before its last test of
   [ready]. Atomics are sequentially consistent, so either that test
   sees the waker's write or the waker sees [parked] and signals under
   the mutex the waiter holds until it sleeps: no wake-up is lost.
   [Domain.cpu_relax] polls, so a spinning domain still joins
   stop-the-world collections. *)
let await s ~spin ready =
  if spin && not (ready ()) then begin
    let deadline = now () + spin_ns in
    while (not (ready ())) && now () < deadline do
      Domain.cpu_relax ()
    done
  end;
  if not (ready ()) then begin
    Mutex.lock s.mu;
    Atomic.set s.parked true;
    while not (ready ()) do
      Condition.wait s.cv s.mu
    done;
    Atomic.set s.parked false;
    Mutex.unlock s.mu
  end

let wake s =
  if Atomic.get s.parked then begin
    Mutex.lock s.mu;
    Condition.signal s.cv;
    Mutex.unlock s.mu
  end

(* A spawned worker waits for [go] to move past [seen], the last
   generation it served, and then serves the pool's one batch or quits.
   [moved] is that test, built once so a wait allocates nothing. *)
type worker = {
  go : int Atomic.t;
  at : spot;
  seen : int ref;
  moved : unit -> bool;
}

let worker () =
  let go = Atomic.make 0 and seen = ref 0 in
  { go; at = spot (); seen; moved = (fun () -> Atomic.get go <> !seen) }

(* The pool keeps its one batch: at most one is ever in flight, so the
   task array, one claim cursor and one chunk end per worker (the
   caller's included) and the first failure are made once, at [create],
   and each [start] only rewrites them. *)
type t = {
  workers : worker array;
  mutable domains : unit Domain.t array;
  spin : bool;
  (* Written before the workers' [go] is bumped, read after. *)
  mutable tasks : (unit -> unit) array;
  cursors : int Atomic.t array;   (* per worker: next index to claim *)
  ends : int array;               (* per worker: end of its chunk *)
  failed : (exn * Printexc.raw_backtrace) option Atomic.t;
  mutable quit : bool;
  (* Spawned workers still inside the current batch; the last one out
     wakes the caller from [caller], where it waits for [all_out]. *)
  running : int Atomic.t;
  caller : spot;
  all_out : unit -> bool;
  mutable in_flight : bool;
  mutable live : bool;
}

let size t = Array.length t.workers + 1

(* Work stealing: a worker drains its own chunk first (no contention in
   the common balanced case), then sweeps the other cursors;
   fetch-and-add may overshoot a chunk's end, which is harmless — the
   bound check rejects the claim. A task's exception is kept (the first
   one raised wins) and the sweep goes on, so every task runs once
   whatever fails. *)
let drain t ~from =
  let w = Array.length t.cursors in
  for k = 0 to w - 1 do
    let c = (from + k) mod w in
    let cur = t.cursors.(c) and hi = t.ends.(c) in
    let i = ref (Atomic.fetch_and_add cur 1) in
    while !i < hi do
      (try t.tasks.(!i) ()
       with e ->
         let bt = Printexc.get_raw_backtrace () in
         ignore (Atomic.compare_and_set t.failed None (Some (e, bt))));
      i := Atomic.fetch_and_add cur 1
    done
  done

let worker_loop t me w =
  let rec serve () =
    await w.at ~spin:t.spin w.moved;
    w.seen := !(w.seen) + 1;
    if not t.quit then begin
      drain t ~from:me;
      if Atomic.fetch_and_add t.running (-1) = 1 then wake t.caller;
      serve ()
    end
  in
  serve ()

let create n =
  if n < 1 then invalid_arg "Domain_pool.create: size must be >= 1";
  let running = Atomic.make 0 in
  let t =
    {
      workers = Array.init (n - 1) (fun _ -> worker ());
      domains = [||];
      spin = n <= Domain.recommended_domain_count ();
      tasks = [||];
      cursors = Array.init n (fun _ -> Atomic.make 0);
      ends = Array.make n 0;
      failed = Atomic.make None;
      quit = false;
      running;
      caller = spot ();
      all_out = (fun () -> Atomic.get running = 0);
      in_flight = false;
      live = true;
    }
  in
  t.domains <-
    Array.mapi
      (fun i w -> Domain.spawn (fun () -> worker_loop t (i + 1) w))
      t.workers;
  t

let post t =
  Array.iter
    (fun w ->
      Atomic.incr w.go;
      wake w.at)
    t.workers

let start t tasks =
  if not t.live then invalid_arg "Domain_pool.start: pool is shut down";
  if t.in_flight then
    invalid_arg "Domain_pool.start: a batch is already in flight";
  let n = Array.length tasks and w = size t in
  let chunk = (n + w - 1) / w in
  t.tasks <- tasks;
  for i = 0 to w - 1 do
    Atomic.set t.cursors.(i) (i * chunk);
    t.ends.(i) <- min n ((i + 1) * chunk)
  done;
  t.in_flight <- true;
  if n > 0 && w > 1 then begin
    Atomic.set t.running (w - 1);
    post t
  end

let finish t =
  if not t.in_flight then invalid_arg "Domain_pool.finish: no batch in flight";
  drain t ~from:0;
  await t.caller ~spin:t.spin t.all_out;
  t.in_flight <- false;
  match Atomic.get t.failed with
  | None -> ()
  | Some (e, bt) ->
    Atomic.set t.failed None;
    Printexc.raise_with_backtrace e bt

let run_tasks t tasks =
  start t tasks;
  finish t

let shutdown t =
  if t.live then begin
    if t.in_flight then (try finish t with _ -> ());
    t.live <- false;
    t.quit <- true;
    post t;
    Array.iter Domain.join t.domains
  end

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

type job = Run of (int -> unit) | Quit

(* A spawned worker waits for [go] to move past the last generation it
   served, then runs the pool's [job]. *)
type worker = { go : int Atomic.t; at : spot }

type t = {
  workers : worker array;
  mutable domains : unit Domain.t array;
  spin : bool;
  (* Written before the workers' [go] is bumped, read after. *)
  mutable job : job;
  (* Spawned workers still inside the current batch; the last one out
     wakes the caller from [caller]. *)
  running : int Atomic.t;
  caller : spot;
  mutable in_flight : batch option;
  mutable live : bool;
}

and batch = {
  pool : t;
  tasks : (unit -> unit) array;
  (* One chunk per worker: next index to claim, end of the chunk. *)
  cursors : (int Atomic.t * int) array;
  failed : (exn * Printexc.raw_backtrace) option Atomic.t;
}

let size t = Array.length t.workers + 1

let worker_loop t me w =
  let rec serve seen =
    await w.at ~spin:t.spin (fun () -> Atomic.get w.go <> seen);
    match t.job with
    | Quit -> ()
    | Run f ->
      f me;
      if Atomic.fetch_and_add t.running (-1) = 1 then wake t.caller;
      serve (seen + 1)
  in
  serve 0

let create n =
  if n < 1 then invalid_arg "Domain_pool.create: size must be >= 1";
  let t =
    {
      workers =
        Array.init (n - 1) (fun _ -> { go = Atomic.make 0; at = spot () });
      domains = [||];
      spin = n <= Domain.recommended_domain_count ();
      job = Quit;
      running = Atomic.make 0;
      caller = spot ();
      in_flight = None;
      live = true;
    }
  in
  t.domains <-
    Array.mapi
      (fun i w -> Domain.spawn (fun () -> worker_loop t (i + 1) w))
      t.workers;
  t

let post t job =
  t.job <- job;
  Array.iter
    (fun w ->
      Atomic.incr w.go;
      wake w.at)
    t.workers

(* Work stealing: a worker drains its own chunk first (no contention in
   the common balanced case), then sweeps the other cursors;
   fetch-and-add may overshoot a chunk's end, which is harmless — the
   bound check rejects the claim. A task's exception is kept (the first
   one raised wins) and the sweep goes on, so every task runs once
   whatever fails. *)
let drain b ~from =
  let w = Array.length b.cursors in
  for k = 0 to w - 1 do
    let cur, hi = b.cursors.((from + k) mod w) in
    let i = ref (Atomic.fetch_and_add cur 1) in
    while !i < hi do
      (try b.tasks.(!i) ()
       with e ->
         let bt = Printexc.get_raw_backtrace () in
         ignore (Atomic.compare_and_set b.failed None (Some (e, bt))));
      i := Atomic.fetch_and_add cur 1
    done
  done

let start t tasks =
  if not t.live then invalid_arg "Domain_pool.start: pool is shut down";
  if Option.is_some t.in_flight then
    invalid_arg "Domain_pool.start: a batch is already in flight";
  let n = Array.length tasks and w = size t in
  let chunk = (n + w - 1) / w in
  let b =
    {
      pool = t;
      tasks;
      cursors =
        Array.init w (fun i ->
            (Atomic.make (i * chunk), min n ((i + 1) * chunk)));
      failed = Atomic.make None;
    }
  in
  t.in_flight <- Some b;
  if n > 0 && w > 1 then begin
    Atomic.set t.running (w - 1);
    post t (Run (fun me -> drain b ~from:me))
  end;
  b

let finish b =
  let t = b.pool in
  drain b ~from:0;
  await t.caller ~spin:t.spin (fun () -> Atomic.get t.running = 0);
  t.in_flight <- None;
  match Atomic.get b.failed with
  | None -> ()
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt

let run_tasks t tasks = finish (start t tasks)

let shutdown t =
  if t.live then begin
    Option.iter (fun b -> try finish b with _ -> ()) t.in_flight;
    t.live <- false;
    post t Quit;
    Array.iter Domain.join t.domains
  end

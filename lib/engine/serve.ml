module Network = Rsin_topology.Network
module Workload = Rsin_sim.Workload
module Fault = Rsin_fault.Fault
module Domain_pool = Rsin_util.Domain_pool
module Clock = Rsin_util.Clock
module Json = Rsin_util.Json

type report = {
  domains : int;
  shards : int;
  events : int;
  borrows : int;
  starved : int;
  horizon : int;
  arrivals : int;
  allocated : int;
  completed : int;
  cancelled : int;
  expired : int;
  left_pending : int;
  cycles : int;
  skipped_cycles : int;
  solver_work : int;
  faults : int;
  repairs : int;
  victims : int;
  shed : int;
  given_up : int;
  retries : int;
  quarantines : int;
  wall_us : float;
  per_shard : Engine.report array;
}

let events_per_sec r =
  if r.wall_us <= 0. then 0. else float_of_int r.events /. (r.wall_us /. 1e6)

let pp_report fmt r =
  Format.fprintf fmt
    "@[<v>domains %d over %d shard(s)@,\
     events %d (borrowed %d, starved %d)@,\
     arrivals %d allocated %d completed %d@,\
     cancelled %d expired %d left pending %d@,\
     cycles %d (skipped %d) solver work %d@,\
     faults %d repairs %d victims %d"
    r.domains r.shards r.events r.borrows r.starved r.arrivals r.allocated
    r.completed r.cancelled r.expired r.left_pending r.cycles r.skipped_cycles
    r.solver_work r.faults r.repairs r.victims;
  (* Guard counters only when the robustness layer was active, so
     legacy output stays byte-identical. *)
  if r.shed + r.given_up + r.retries + r.quarantines > 0 then
    Format.fprintf fmt "@,shed %d given up %d retries %d quarantines %d"
      r.shed r.given_up r.retries r.quarantines;
  Format.fprintf fmt "@,horizon %d wall %.0f us (%.0f events/s)@]" r.horizon
    r.wall_us (events_per_sec r)

(* --- Router task map --------------------------------------------------------- *)

module Task_map = struct
  (* Maximal ascending runs of ids routed to one shard, three ints per
     run — first id, count, shard — in one flat array: the form the
     checkpoint writes. Routing in ascending id order only extends the
     newest run or appends one. An id routed at or below the newest
     run's last id (no generator does it) goes to [stray], which
     [fold_runs] sorts and merges in. *)
  type t = {
    mutable runs : int array;
    mutable n : int;  (* runs in use *)
    stray : (int, int) Hashtbl.t;
  }

  let create () = { runs = Array.make 48 0; n = 0; stray = Hashtbl.create 8 }

  (* The newest run's last id, above every stray; min_int when empty. *)
  let max_id m =
    if m.n = 0 then min_int
    else
      let i = 3 * (m.n - 1) in
      m.runs.(i) + m.runs.(i + 1) - 1

  (* Ids [first .. first + count - 1], all above [max_id m]. *)
  let append m ~first ~count ~shard =
    let i = 3 * (m.n - 1) in
    if m.n > 0 && first - 1 = max_id m && m.runs.(i + 2) = shard then
      m.runs.(i + 1) <- m.runs.(i + 1) + count
    else begin
      let i = 3 * m.n in
      if i = Array.length m.runs then begin
        let bigger = Array.make (2 * i) 0 in
        Array.blit m.runs 0 bigger 0 i;
        m.runs <- bigger
      end;
      m.runs.(i) <- first;
      m.runs.(i + 1) <- count;
      m.runs.(i + 2) <- shard;
      m.n <- m.n + 1
    end

  (* The shard of [id], -1 when it is not in the map. *)
  let shard_of m id =
    (* Binary search for the last run starting at or below [id]. *)
    let lo = ref 0 and hi = ref m.n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if m.runs.(3 * mid) <= id then lo := mid + 1 else hi := mid
    done;
    let i = 3 * (!lo - 1) in
    if i >= 0 && id <= m.runs.(i) + m.runs.(i + 1) - 1 then m.runs.(i + 2)
    else match Hashtbl.find m.stray id with s -> s | exception Not_found -> -1

  let find m id =
    let s = shard_of m id in
    if s < 0 then None else Some s

  let mem m id = shard_of m id >= 0

  let add m id shard =
    if id > max_id m then append m ~first:id ~count:1 ~shard
    else if mem m id then
      invalid_arg (Printf.sprintf "Serve.Task_map.add: id %d already routed" id)
    else Hashtbl.replace m.stray id shard

  (* Runs and strays merge by first id, from the last down: the pending
     run [first, count, shard] grows downward while the next segment
     ends right below it on its shard, and goes to [f] when one does
     not. *)
  let fold_runs m f acc =
    let strays = Array.of_seq (Hashtbl.to_seq m.stray) in
    Array.sort (fun (a, _) (b, _) -> Int.compare a b) strays;
    let rec next r k first count shard acc =
      if r >= 0 && (k < 0 || m.runs.(3 * r) > fst strays.(k)) then
        segment (r - 1) k m.runs.(3 * r) m.runs.((3 * r) + 1)
          m.runs.((3 * r) + 2) first count shard acc
      else if k >= 0 then
        segment r (k - 1) (fst strays.(k)) 1 (snd strays.(k)) first count shard acc
      else if count > 0 then f first count shard acc
      else acc
    and segment r k fi c s first count shard acc =
      if count > 0 && fi + c = first && s = shard then
        next r k fi (c + count) shard acc
      else next r k fi c s (if count > 0 then f first count shard acc else acc)
    in
    next (m.n - 1) (Array.length strays - 1) 0 0 0 acc
end

type probe = Unprobed | Probed of (int * bool * int) option

type t = {
  shard : Shard.t;
  engines : Engine.t array;
  pool : Domain_pool.t;
  (* Global element id -> (shard, local id) for fault routing. *)
  link_home : (int * int) array;
  box_home : (int * int) array;
  (* Task id -> shard the arrival was fed to (home or donor). An
     arrival waiting in [buffer] is not in it yet. *)
  task_home : Task_map.t;
  (* Highest task id fed so far, routed or buffered: an arrival above it
     is new without a lookup. *)
  mutable claimed_top : int;
  (* The buffered arrivals' ids, indexed only once the slot sees an id
     at or below [claimed_top], then kept current until the flush. *)
  slot_ids : (int, unit) Hashtbl.t;
  mutable slot_indexed : bool;
  probes : probe array;  (* per shard, this routing pass *)
  (* The shards' advance through the slot before [cur_slot], started by
     the feed that sealed the last slot and running while the caller
     feeds the next one; joined before anything reads or writes an
     engine. *)
  mutable advancing : bool;
  (* One task per shard, built once, advancing it through [!upto]; each
     task owns its engine, so the only shared state is the pool's
     work-stealing cursor. *)
  upto : int ref;
  advance : (unit -> unit) array;
  event_hook : (events:int -> time:int -> unit) option;
  start_ns : int64;
  mutable cur_slot : int;
  (* The current slot's events, [slot.(0 .. n_slot - 1)], in feed
     order; the array is reused from slot to slot. *)
  mutable slot : Workload.trace_event array;
  mutable n_slot : int;
  mutable buffering : bool;  (* false until the first event *)
  mutable events : int;
  mutable borrows : int;
  mutable starved : int;
  mutable wall_us : float;
  mutable drained : bool;
}

let shard t = t.shard
let n_domains t = Domain_pool.size t.pool

let create ?(config = Engine.Config.default) ?domains ?cycle_hook ?event_hook
    net =
  let domains =
    match domains with
    | Some d -> d
    | None -> Domain.recommended_domain_count ()
  in
  if domains < 1 then Error "Serve.create: domains must be >= 1"
  else if config.Engine.Config.mode = Engine.Token then
    Error
      "Serve.create: token mode is not supported by the sharded engine \
       (the status-bus protocol assumes a single fabric)"
  else
    (* Always one shard per connected component: the shard layout (and
       with it every routing/borrowing decision) must not depend on the
       domain count, or domains=1 and domains=N would diverge. [domains]
       only sizes the pool that serves the shards. *)
    match Shard.partition net with
    | Error _ as e -> e
    | Ok shard ->
      let parts = shard.Shard.parts in
      let engines =
        Array.mapi
          (fun si part ->
            let cycle_hook =
              Option.map
                (fun hook -> fun net info -> hook ~shard:si net info)
                cycle_hook
            in
            Engine.create ?cycle_hook ~config part.Shard.net)
          parts
      in
      let upto = ref min_int in
      let advance =
        Array.init (Array.length engines) (fun i () ->
            Engine.advance engines.(i) ~upto:!upto)
      in
      let link_home = Array.make (Network.n_links net) (-1, -1) in
      let box_home = Array.make (Network.n_boxes net) (-1, -1) in
      Array.iteri
        (fun si part ->
          Array.iteri (fun l g -> link_home.(g) <- (si, l)) part.Shard.links;
          Array.iteri (fun l g -> box_home.(g) <- (si, l)) part.Shard.boxes)
        parts;
      Ok
        {
          shard;
          engines;
          pool = Domain_pool.create (min domains (Array.length parts));
          link_home;
          box_home;
          task_home = Task_map.create ();
          claimed_top = min_int;
          slot_ids = Hashtbl.create 16;
          slot_indexed = false;
          probes = Array.make (Array.length parts) Unprobed;
          advancing = false;
          upto;
          advance;
          event_hook;
          start_ns = Clock.now_ns ();
          cur_slot = min_int;
          slot = Array.make 64 (Workload.Cancel { t = 0; id = 0 });
          n_slot = 0;
          buffering = false;
          events = 0;
          borrows = 0;
          starved = 0;
          wall_us = 0.;
          drained = false;
        }

(* --- Borrowing ----------------------------------------------------------- *)

(* Engine.headroom of shard [s], probed at most once per routing pass:
   Engine.feed only pushes onto a shard's event heap, so no donor's idle
   processors, free ports or warm network change until the next
   advance. [flush] clears the memo after the advance. *)
let headroom t s =
  match t.probes.(s) with
  | Probed h -> h
  | Unprobed ->
    let h = Engine.headroom t.engines.(s) in
    t.probes.(s) <- Probed h;
    h

(* --- Event routing -------------------------------------------------------- *)

(* Files an arrival with its home shard, or, when the home shard has no
   free resource, with a donor: the largest headroom wins, ties prefer
   fabric-unlimited donors, then the lowest shard index, and the arrival
   is re-issued at the donor's lowest idle (local) processor. No donor:
   it stays home, starved. Allocates nothing but what the engine keeps. *)
let route_arrival t ~time ~id ~proc ~service ~priority ~deadline =
  let home = t.shard.Shard.shard_of_proc.(proc) in
  let si = ref home and local = ref t.shard.Shard.local_proc.(proc) in
  if not (Engine.has_free_resource t.engines.(home)) then begin
    let best = ref (-1) and best_limited = ref false in
    for s = 0 to Array.length t.engines - 1 do
      if s <> home then
        match headroom t s with
        | Some (h, limited, target)
          when h > !best || (h = !best && !best_limited && not limited) ->
          si := s;
          local := target;
          best := h;
          best_limited := limited
        | Some _ | None -> ()
    done;
    if !si = home then t.starved <- t.starved + 1
    else t.borrows <- t.borrows + 1
  end;
  Task_map.add t.task_home id !si;
  Engine.feed_arrival t.engines.(!si) ~time ~id ~proc:!local ~service ~priority
    ~deadline

let route t ev =
  match ev with
  | Workload.Arrive { t = time; id; proc; service; deadline; priority } ->
    route_arrival t ~time ~id ~proc ~service ~priority ~deadline
  | Workload.Cancel { id; _ } ->
    (* Cancels chase the task to wherever its arrival was routed; a
       cancel for a task we never saw, or whose arrival waits behind it
       in this slot, has nothing to withdraw. *)
    let si = Task_map.shard_of t.task_home id in
    if si >= 0 then Engine.feed t.engines.(si) ev
  | Workload.Fault { t = time; clock; element }
  | Workload.Repair { t = time; clock; element } ->
    let si, element =
      match element with
      | Fault.Link g ->
        let si, l = t.link_home.(g) in
        (si, Fault.Link l)
      | Fault.Box g ->
        let si, b = t.box_home.(g) in
        (si, Fault.Box b)
      | Fault.Res g ->
        ( t.shard.Shard.shard_of_res.(g),
          Fault.Res t.shard.Shard.local_res.(g) )
    in
    let ev' =
      match ev with
      | Workload.Fault _ -> Workload.Fault { t = time; clock; element }
      | _ -> Workload.Repair { t = time; clock; element }
    in
    Engine.feed t.engines.(si) ev'

(* Waits for the advance in flight; an engine's exception surfaces
   here, once. *)
let join t =
  if t.advancing then begin
    t.advancing <- false;
    Domain_pool.finish t.pool
  end

(* Routes the buffered slot on shards complete through the slot before
   it, which [join] alone ensures: the feed that sealed the previous
   slot started that advance; before the first sealed slot the shards
   hold nothing to serve; and a restored instance's shards are served
   through it by the checkpoint. Starts nothing: a flush from
   [snapshot] falls mid-slot, and advancing through the slot would put
   its later events at or before the shards' [served_upto]. *)
let flush t =
  join t;
  let n = t.n_slot in
  if n > 0 then begin
    Array.fill t.probes 0 (Array.length t.probes) Unprobed;
    t.n_slot <- 0;
    if t.slot_indexed then begin
      Hashtbl.clear t.slot_ids;
      t.slot_indexed <- false
    end;
    for i = 0 to n - 1 do
      route t t.slot.(i)
    done;
    t.events <- t.events + n;
    match t.event_hook with
    | Some f -> f ~events:t.events ~time:t.cur_slot
    | None -> ()
  end

(* Whether [id] is routed or buffered; asked only for an id at or below
   [claimed_top]. The slot's first such question indexes its buffered
   arrivals once; [feed] keeps the index current until the flush. *)
let claimed t id =
  Task_map.mem t.task_home id
  || begin
    if not t.slot_indexed then begin
      for i = 0 to t.n_slot - 1 do
        match t.slot.(i) with
        | Workload.Arrive a -> Hashtbl.replace t.slot_ids a.id ()
        | Workload.Cancel _ | Workload.Fault _ | Workload.Repair _ -> ()
      done;
      t.slot_indexed <- true
    end;
    Hashtbl.mem t.slot_ids id
  end

(* Everything [route] and Engine.feed would reject, checked before the
   event is buffered: raising mid-flush would abort the flush and lose
   the valid events buffered behind the bad one. O(1) per event, but for
   the duplicate check of an id not above every earlier one. *)
let validate t ev =
  Option.iter
    (fun m -> invalid_arg ("Serve.feed: " ^ m))
    (Engine.event_error t.shard.Shard.base ev);
  match ev with
  | Workload.Arrive a ->
    if a.id <= t.claimed_top && claimed t a.id then
      invalid_arg (Printf.sprintf "Serve.feed: duplicate task id %d" a.id)
  | Workload.Cancel _ | Workload.Fault _ | Workload.Repair _ -> ()

let feed t ev =
  if t.drained then invalid_arg "Serve.feed: already drained";
  let time = Workload.event_time ev in
  if t.buffering && time < t.cur_slot then
    invalid_arg "Serve.feed: events must arrive in nondecreasing slot order";
  validate t ev;
  if t.buffering && time > t.cur_slot then begin
    (* [ev] seals the buffered slot: route it (the event hook fires
       there, before anything is in flight), then let the shards run
       through [time - 1] while the caller feeds slot [time]. *)
    flush t;
    t.upto := time - 1;
    Domain_pool.start t.pool t.advance;
    t.advancing <- true
  end;
  (* Claimed only now, after the flush, which resets the slot's index. *)
  (match ev with
  | Workload.Arrive a ->
    if a.id > t.claimed_top then t.claimed_top <- a.id;
    if t.slot_indexed then Hashtbl.replace t.slot_ids a.id ()
  | Workload.Cancel _ | Workload.Fault _ | Workload.Repair _ -> ());
  t.buffering <- true;
  t.cur_slot <- time;
  if t.n_slot = Array.length t.slot then begin
    let bigger = Array.make (2 * t.n_slot) ev in
    Array.blit t.slot 0 bigger 0 t.n_slot;
    t.slot <- bigger
  end;
  t.slot.(t.n_slot) <- ev;
  t.n_slot <- t.n_slot + 1

let drain t =
  if not t.drained then begin
    flush t;
    Domain_pool.run_tasks t.pool
      (Array.map (fun e () -> Engine.drain e) t.engines);
    t.wall_us <- Clock.elapsed_us ~since:t.start_ns;
    t.drained <- true;
    Domain_pool.shutdown t.pool
  end

let report t =
  join t;
  let per_shard = Array.map Engine.report t.engines in
  let sum f = Array.fold_left (fun acc r -> acc + f r) 0 per_shard in
  {
    domains = n_domains t;
    shards = Array.length t.engines;
    events = t.events;
    borrows = t.borrows;
    starved = t.starved;
    horizon =
      Array.fold_left (fun acc r -> max acc r.Engine.horizon) 0 per_shard;
    arrivals = sum (fun r -> r.Engine.arrivals);
    allocated = sum (fun r -> r.Engine.allocated);
    completed = sum (fun r -> r.Engine.completed);
    cancelled = sum (fun r -> r.Engine.cancelled);
    expired = sum (fun r -> r.Engine.expired);
    left_pending = sum (fun r -> r.Engine.left_pending);
    cycles = sum (fun r -> r.Engine.cycles);
    skipped_cycles = sum (fun r -> r.Engine.skipped_cycles);
    solver_work = sum (fun r -> r.Engine.solver_work);
    faults = sum (fun r -> r.Engine.faults);
    repairs = sum (fun r -> r.Engine.repairs);
    victims = sum (fun r -> r.Engine.victims);
    shed = sum (fun r -> r.Engine.shed);
    given_up = sum (fun r -> r.Engine.given_up);
    retries = sum (fun r -> r.Engine.retries);
    quarantines = sum (fun r -> r.Engine.quarantines);
    wall_us = t.wall_us;
    per_shard;
  }

let check_accounting t =
  join t;
  let errs =
    Array.to_list t.engines
    |> List.mapi (fun i e ->
           match Engine.check_accounting e with
           | Ok () -> None
           | Error m -> Some (Printf.sprintf "shard %d: %s" i m))
    |> List.filter_map Fun.id
  in
  if errs = [] then Ok () else Error (String.concat "; " errs)

let abort t =
  (* Crash simulation / emergency stop: shut the pool down without
     flushing or draining. The instance only accepts [report] after.
     The advance in flight still has to finish first; what it raises is
     dropped, so an instance whose engine failed can still be stopped. *)
  if not t.drained then begin
    (try join t with _ -> ());
    t.wall_us <- Clock.elapsed_us ~since:t.start_ns;
    t.drained <- true;
    Domain_pool.shutdown t.pool
  end

(* --- Checkpoint / restore ------------------------------------------------- *)

let checkpoint_schema = "rsin-serve-checkpoint/v2"

module D = Json.Decode

(* task_home as [first_id, count, shard] triples, one per maximal run of
   consecutive ids routed to the same shard, ascending: the map's own
   runs, consed from the last. Arrivals are numbered slot by slot, so
   runs are long; at worst each holds one id. *)
let task_home_runs t =
  Task_map.fold_runs t.task_home
    (fun first count si acc ->
      Json.Arr [ Json.int first; Json.int count; Json.int si ] :: acc)
    []

(* Inverse of [task_home_runs], appending whole runs. Every routed
   arrival is one event, so the runs of a checkpoint [snapshot] wrote
   cover at most [events] ids. *)
let restore_task_home t ~events v =
  let n_shards = Array.length t.engines in
  let covered = ref 0 in
  let run v =
    let first, count, si =
      match D.list D.int v with
      | [ first; count; si ] -> (first, count, si)
      | _ | (exception D.Error _) -> D.fail "malformed task_home run"
    in
    if count < 1 then D.fail "task_home run count below 1";
    if first <= Task_map.max_id t.task_home then
      D.fail "task_home runs not ascending and disjoint";
    if si < 0 || si >= n_shards then
      D.fail "task_home shard %d outside %d shard(s)" si n_shards;
    if count > events - !covered then
      D.fail "task_home runs cover more ids than events";
    Task_map.append t.task_home ~first ~count ~shard:si;
    covered := !covered + count
  in
  ignore (D.list run v)

let snapshot t =
  if t.drained then invalid_arg "Serve.snapshot: already drained";
  (* Flush first so the snapshot lands on a slot boundary: every shard
     advanced through cur_slot - 1 and every routed event of cur_slot
     sitting in its shard's heap. Re-entrant calls from the event hook
     are safe — the buffer is already empty there, and nothing is in
     flight. *)
  flush t;
  (* The document is a tree that is garbage once printed: about 130k
     words for a 100 KB overload checkpoint, half a default minor heap.
     Emptying the minor heap first keeps a collection from landing
     mid-build and promoting the half-built tree, so what a checkpoint
     costs does not hang on where the heap happened to stand. *)
  Gc.minor ();
  Json.Obj
    [ ("schema", Json.Str checkpoint_schema);
      ("config", Engine.Config.to_json (Engine.config t.engines.(0)));
      ("cur_slot", if t.buffering then Json.int t.cur_slot else Json.Null);
      ("events", Json.int t.events);
      ("borrows", Json.int t.borrows);
      ("starved", Json.int t.starved);
      ("task_home", Json.Arr (task_home_runs t));
      ( "shards",
        Json.Arr (Array.to_list (Array.map Engine.snapshot t.engines)) ) ]

(* The shards and the router's state, into an instance [create] made
   from the document's config. *)
let restore_into t ?cycle_hook j =
  let parts = t.shard.Shard.parts in
  let shards = D.field "shards" (D.list Fun.id) j in
  if List.length shards <> Array.length parts then
    D.fail "%d shard snapshot(s) for %d shard(s)" (List.length shards)
      (Array.length parts);
  List.iteri
    (fun i sj ->
      let cycle_hook =
        Option.map (fun hook -> fun net info -> hook ~shard:i net info) cycle_hook
      in
      match Engine.restore ?cycle_hook parts.(i).Shard.net sj with
      | Ok e -> t.engines.(i) <- e
      | Error m -> D.fail "shard %d: %s" i m)
    shards;
  let events = D.field "events" D.int j in
  D.field "task_home" (restore_task_home t ~events) j;
  t.claimed_top <- Task_map.max_id t.task_home;
  t.events <- events;
  t.borrows <- D.field "borrows" D.int j;
  t.starved <- D.field "starved" D.int j;
  Option.iter
    (fun s ->
      t.cur_slot <- s;
      t.buffering <- true)
    (D.opt "cur_slot" D.int j)

let restore ?domains ?cycle_hook ?event_hook net j =
  let ( let* ) = Result.bind and what = "serve checkpoint" in
  let* config =
    D.run ~what (fun () ->
        let schema = D.field "schema" D.str j in
        if schema <> checkpoint_schema then
          D.fail "unsupported schema %S (want %S)" schema checkpoint_schema;
        D.field "config" (fun v -> D.ok (Engine.Config.of_json v)) j)
  in
  let* t = create ~config ?domains ?cycle_hook ?event_hook net in
  match D.run ~what (fun () -> restore_into t ?cycle_hook j) with
  | Ok () -> Ok t
  | Error m ->
    abort t;
    Error m

let run ?config ?domains ?cycle_hook ?event_hook net trace =
  match create ?config ?domains ?cycle_hook ?event_hook net with
  | Error _ as e -> e
  | Ok t ->
    (try
       List.iter (feed t) trace;
       drain t;
       Ok (report t)
     with e ->
       let bt = Printexc.get_raw_backtrace () in
       abort t;
       Printexc.raise_with_backtrace e bt)

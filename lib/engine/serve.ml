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
     [iter_runs] sorts and merges in. *)
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

  let find m id =
    (* Binary search for the last run starting at or below [id]. *)
    let lo = ref 0 and hi = ref m.n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if m.runs.(3 * mid) <= id then lo := mid + 1 else hi := mid
    done;
    let i = 3 * (!lo - 1) in
    if i >= 0 && id <= m.runs.(i) + m.runs.(i + 1) - 1 then Some m.runs.(i + 2)
    else Hashtbl.find_opt m.stray id

  let mem m id = Option.is_some (find m id)

  let add m id shard =
    if id > max_id m then append m ~first:id ~count:1 ~shard
    else if mem m id then
      invalid_arg (Printf.sprintf "Serve.Task_map.add: id %d already routed" id)
    else Hashtbl.replace m.stray id shard

  let iter_runs m f =
    (* One pending run, flushed to [f] when the next one does not
       continue it. *)
    let first = ref 0 and count = ref 0 and shard = ref 0 in
    let emit fi c s =
      if !count > 0 && fi = !first + !count && s = !shard then
        count := !count + c
      else begin
        if !count > 0 then f !first !count !shard;
        first := fi;
        count := c;
        shard := s
      end
    in
    let strays = Array.of_seq (Hashtbl.to_seq m.stray) in
    Array.sort (fun (a, _) (b, _) -> Int.compare a b) strays;
    let k = ref 0 in
    let strays_below bound =
      while !k < Array.length strays && fst strays.(!k) < bound do
        let id, s = strays.(!k) in
        emit id 1 s;
        incr k
      done
    in
    for r = 0 to m.n - 1 do
      strays_below m.runs.(3 * r);
      emit m.runs.(3 * r) m.runs.((3 * r) + 1) m.runs.((3 * r) + 2)
    done;
    strays_below max_int;
    if !count > 0 then f !first !count !shard
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
  mutable advancing : Domain_pool.batch option;
  event_hook : (events:int -> time:int -> unit) option;
  start_ns : int64;
  mutable cur_slot : int;
  mutable buffer : Workload.trace_event list;  (* current slot, reversed *)
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
          advancing = None;
          event_hook;
          start_ns = Clock.now_ns ();
          cur_slot = min_int;
          buffer = [];
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

(* Largest headroom wins; ties prefer fabric-unlimited donors, then the
   lowest shard index. Returns the donor and its lowest idle (local)
   processor. *)
let pick_donor t ~home =
  let best = ref None in
  Array.iteri
    (fun s _ ->
      if s <> home then
        match headroom t s with
        | None -> ()
        | Some (headroom, fabric_limited, target) ->
          let better =
            match !best with
            | None -> true
            | Some (h, fl, _, _) ->
              headroom > h || (headroom = h && fl && not fabric_limited)
          in
          if better then best := Some (headroom, fabric_limited, s, target))
    t.engines;
  Option.map (fun (_, _, s, target) -> (s, target)) !best

(* --- Event routing -------------------------------------------------------- *)

let route t ev =
  match ev with
  | Workload.Arrive a ->
    let home = t.shard.Shard.shard_of_proc.(a.proc) in
    let feed_to si proc =
      Task_map.add t.task_home a.id si;
      Engine.feed t.engines.(si) (Workload.Arrive { a with proc })
    in
    let feed_home () = feed_to home t.shard.Shard.local_proc.(a.proc) in
    if Engine.has_free_resource t.engines.(home) then feed_home ()
    else begin
      match pick_donor t ~home with
      | Some (donor, target) ->
        t.borrows <- t.borrows + 1;
        feed_to donor target
      | None ->
        t.starved <- t.starved + 1;
        feed_home ()
    end
  | Workload.Cancel c -> (
    (* Cancels chase the task to wherever its arrival was routed; a
       cancel for a task we never saw, or whose arrival waits behind it
       in this slot, has nothing to withdraw. *)
    match Task_map.find t.task_home c.id with
    | Some si -> Engine.feed t.engines.(si) ev
    | None -> ())
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

(* One task per shard advancing it through [upto]; each task owns its
   engine, so the only shared state is the work-stealing cursor. *)
let advance_tasks t ~upto =
  Array.map (fun e () -> Engine.advance e ~upto) t.engines

(* Waits for the advance in flight; an engine's exception surfaces
   here, once. *)
let join t =
  match t.advancing with
  | None -> ()
  | Some b ->
    t.advancing <- None;
    Domain_pool.finish b

(* Routes the buffered slot on shards complete through the slot before
   it, which [join] alone ensures: the feed that sealed the previous
   slot started that advance; before the first sealed slot the shards
   hold nothing to serve; and a restored instance's shards are served
   through it by the checkpoint. Starts nothing: a flush from
   [snapshot] falls mid-slot, and advancing through the slot would put
   its later events at or before the shards' [served_upto]. *)
let flush t =
  join t;
  match t.buffer with
  | [] -> ()
  | buffered ->
    let slot = t.cur_slot in
    Array.fill t.probes 0 (Array.length t.probes) Unprobed;
    let evs = List.rev buffered in
    t.buffer <- [];
    if t.slot_indexed then begin
      Hashtbl.clear t.slot_ids;
      t.slot_indexed <- false
    end;
    List.iter (route t) evs;
    t.events <- t.events + List.length evs;
    Option.iter (fun f -> f ~events:t.events ~time:slot) t.event_hook

(* Whether [id] is routed or buffered; asked only for an id at or below
   [claimed_top]. The slot's first such question indexes its buffered
   arrivals once; [feed] keeps the index current until the flush. *)
let claimed t id =
  Task_map.mem t.task_home id
  || begin
    if not t.slot_indexed then begin
      List.iter
        (function
          | Workload.Arrive a -> Hashtbl.replace t.slot_ids a.id ()
          | _ -> ())
        t.buffer;
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
    t.advancing <-
      Some (Domain_pool.start t.pool (advance_tasks t ~upto:(time - 1)))
  end;
  (* Claimed only now, after the flush, which resets the slot's index. *)
  (match ev with
  | Workload.Arrive a ->
    if a.id > t.claimed_top then t.claimed_top <- a.id;
    if t.slot_indexed then Hashtbl.replace t.slot_ids a.id ()
  | _ -> ());
  if t.buffering && time = t.cur_slot then t.buffer <- ev :: t.buffer
  else begin
    t.buffering <- true;
    t.cur_slot <- time;
    t.buffer <- [ ev ]
  end

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
   runs, copied out. Arrivals are numbered slot by slot, so runs are
   long; at worst each holds one id. *)
let task_home_runs t =
  let acc = ref [] in
  Task_map.iter_runs t.task_home (fun first count si ->
      acc := Json.Arr [ Json.int first; Json.int count; Json.int si ] :: !acc);
  List.rev !acc

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

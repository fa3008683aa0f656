module Network = Rsin_topology.Network
module Fault = Rsin_fault.Fault
module Prng = Rsin_util.Prng
module Stats = Rsin_util.Stats
module Obs = Rsin_obs.Obs

type task = { arrival : int; proc : int; service : int; flits : int }

type report = {
  horizon : int;
  arrivals : int;
  bound : int;
  completed : int;
  dropped : int;
  left_pending : int;
  mean_response : float;
  p95_response : float;
  max_response : int;
  throughput : float;
  serving_utilization : float;
  reserved_utilization : float;
  reserved_idle : float;
  grants : int;
  conflicts : int;
  injected_flits : int;
  delivered_flits : int;
  dropped_flits : int;
  faults_applied : int;
  repairs_applied : int;
}

type res_state = {
  mutable reserved_by : int;  (* task id, -1 when free *)
  mutable busy_until : int;   (* -1 when not serving *)
}

let run ?obs ?vq_depth ?(warmup = 0) ?(max_slots = 100_000) ?(faults = [])
    ~arbiter rng net tasks =
  List.iter
    (fun tk ->
      if tk.service < 1 then invalid_arg "Replay.run: service must be >= 1";
      if tk.flits < 1 then invalid_arg "Replay.run: flits must be >= 1";
      if tk.proc < 0 || tk.proc >= Network.n_procs net then
        invalid_arg "Replay.run: proc out of range")
    tasks;
  let fabric = Fabric.create ?obs ?vq_depth ~arbiter net in
  let np = Network.n_procs net and nr = Network.n_res net in
  let pending : task Queue.t array = Array.init np (fun _ -> Queue.create ()) in
  let arrivals_left =
    ref (List.stable_sort (fun a b -> compare a.arrival b.arrival) tasks)
  in
  let arrivals = List.length tasks in
  let ress = Array.init nr (fun _ -> { reserved_by = -1; busy_until = -1 }) in
  (* task id -> (arrival, service, reserved resource) *)
  let live = Hashtbl.create 64 in
  let faults =
    List.stable_sort (fun (a, _) (b, _) -> compare a b) faults |> ref
  in
  let next_id = ref 0 in
  let bound = ref 0 and completed = ref 0 and dropped = ref 0 in
  (* completions from slot [warmup] on: throughput's numerator, over the
     same measured slots as its denominator *)
  let measured_completed = ref 0 in
  let faults_applied = ref 0 and repairs_applied = ref 0 in
  let responses = ref [] and max_response = ref 0 in
  let serving_acc = ref 0 and reserved_acc = ref 0 and idle_acc = ref 0 in
  let measured = ref 0 in
  let release task =
    Array.iter
      (fun st ->
        if st.reserved_by = task then begin
          st.reserved_by <- -1;
          st.busy_until <- -1
        end)
      ress
  in
  let drop task =
    if Hashtbl.mem live task then begin
      Hashtbl.remove live task;
      incr dropped;
      release task
    end
  in
  let t = ref 0 in
  let continue = ref true in
  while !continue do
    let now = !t in
    (* 1. faults/repairs strike at the slot boundary *)
    let struck = ref false in
    let rec apply_faults () =
      match !faults with
      | (ft, ev) :: rest when ft <= now ->
        Fault.apply net ev;
        if Fault.is_down ev then incr faults_applied else incr repairs_applied;
        struck := true;
        faults := rest;
        apply_faults ()
      | _ -> ()
    in
    apply_faults ();
    if !struck then begin
      List.iter
        (function
          | Fabric.Dropped { task; _ } -> drop task
          | Fabric.Delivered _ -> ())
        (Fabric.refresh_health fabric);
      (* a resource dying mid-service loses the task it was serving *)
      Array.iteri
        (fun r st ->
          if st.reserved_by >= 0 && not (Network.res_up net r) then
            drop st.reserved_by)
        ress
    end;
    (* 2. service completions *)
    Array.iter
      (fun st ->
        if st.busy_until >= 0 && st.busy_until <= now then begin
          let task = st.reserved_by in
          (match Hashtbl.find_opt live task with
          | Some (arrival, _, _) ->
            let resp = now - arrival in
            responses := float_of_int resp :: !responses;
            if resp > !max_response then max_response := resp;
            Obs.observe obs "packet.response" (float_of_int resp)
          | None -> ());
          Hashtbl.remove live task;
          incr completed;
          if now >= warmup then incr measured_completed;
          st.reserved_by <- -1;
          st.busy_until <- -1
        end)
      ress;
    (* 3. arrivals *)
    let rec take_arrivals () =
      match !arrivals_left with
      | tk :: rest when tk.arrival <= now ->
        Queue.push tk pending.(tk.proc);
        arrivals_left := rest;
        take_arrivals ()
      | _ -> ()
    in
    take_arrivals ();
    (* 4. binding: a processor whose previous task is fully injected
       binds its queue head to a random unreserved reachable resource
       (address mapping), reserving it for the task's whole life. *)
    for p = 0 to np - 1 do
      if (not (Queue.is_empty pending.(p))) && Fabric.entry_backlog fabric p = 0
      then begin
        let tk = Queue.peek pending.(p) in
        let candidates = ref [] in
        for r = nr - 1 downto 0 do
          if ress.(r).reserved_by = -1
             && Routing.proc_reaches (Fabric.routing fabric) ~proc:p ~dest:r
          then candidates := r :: !candidates
        done;
        match !candidates with
        | [] -> ()  (* pool exhausted or unreachable: retry next slot *)
        | l ->
          let arr = Array.of_list l in
          let r = arr.(Prng.int rng (Array.length arr)) in
          ignore (Queue.pop pending.(p));
          let id = !next_id in
          incr next_id;
          ress.(r).reserved_by <- id;
          Hashtbl.replace live id (tk.arrival, tk.service, r);
          Fabric.offer fabric ~proc:p ~task:id ~dest:r ~flits:tk.flits;
          incr bound
      end
    done;
    (* 5. one fabric cycle *)
    List.iter
      (function
        | Fabric.Delivered { task; _ } ->
          (match Hashtbl.find_opt live task with
          | Some (_, service, r) -> ress.(r).busy_until <- now + service
          | None -> ())
        | Fabric.Dropped { task; _ } -> drop task)
      (Fabric.step fabric);
    (* 6. measurement *)
    if now >= warmup then begin
      incr measured;
      Array.iter
        (fun st ->
          if st.reserved_by >= 0 then begin
            incr reserved_acc;
            if st.busy_until >= 0 then incr serving_acc else incr idle_acc
          end)
        ress
    end;
    t := now + 1;
    let drained =
      !arrivals_left = []
      && Array.for_all Queue.is_empty pending
      && Fabric.in_flight fabric = 0
      && Array.for_all (fun st -> st.reserved_by = -1) ress
    in
    if drained || !t >= max_slots then continue := false
  done;
  let horizon = !t in
  let st = Fabric.stats fabric in
  let left_pending = arrivals - !completed - !dropped in
  let slots = float_of_int (max 1 !measured) in
  let per_res x = float_of_int x /. (slots *. float_of_int nr) in
  let responses = Array.of_list !responses in
  let reserved_idle = per_res !idle_acc in
  Obs.set_gauge obs "packet.reserved_idle" reserved_idle;
  { horizon;
    arrivals;
    bound = !bound;
    completed = !completed;
    dropped = !dropped;
    left_pending;
    mean_response =
      (if Array.length responses = 0 then nan
       else Array.fold_left ( +. ) 0. responses /. float_of_int (Array.length responses));
    p95_response = Stats.percentile responses 95.;
    max_response = !max_response;
    throughput = float_of_int !measured_completed /. slots;
    serving_utilization = per_res !serving_acc;
    reserved_utilization = per_res !reserved_acc;
    reserved_idle;
    grants = st.Fabric.grants;
    conflicts = st.Fabric.conflicts;
    injected_flits = st.Fabric.injected_flits;
    delivered_flits = st.Fabric.delivered_flits;
    dropped_flits = st.Fabric.dropped_flits;
    faults_applied = !faults_applied;
    repairs_applied = !repairs_applied }

(* In-memory span recorder for the traced run: one flat record per span
   (kind, start, end, parent) in growable int buffers, so recording a
   span costs two clock reads and a few stores. The spans are written
   once, after measuring, as a Chrome trace (chrome://tracing or
   Perfetto). *)

type kind =
  | Rep        (* one whole pass over the workload *)
  | Network    (* topology construction (Builders) *)
  | Partition  (* Shard.partition on its own network copy *)
  | Create     (* Serve.create: partition, engine compile, pool spawn *)
  | Serve      (* first byte to the return of Serve.drain *)
  | Parse      (* Workload.fold_lines_lenient: line split and parse *)
  | Feed       (* Serve.feed that only buffers *)
  | Flush      (* Serve.feed that opens a new slot: advance + route *)
  | Checkpoint (* Serve.snapshot + Json.to_string from the event hook *)
  | Drain      (* Serve.drain *)
  | Check      (* Serve.report + Serve.check_accounting *)
  | Barrier    (* one empty Domain_pool.run_tasks round trip *)
  | Restore    (* Json.parse + Serve.restore of the last checkpoint *)

let kinds =
  [| Rep; Network; Partition; Create; Serve; Parse; Feed; Flush; Checkpoint;
     Drain; Check; Barrier; Restore |]

let name = function
  | Rep -> "rep"
  | Network -> "network"
  | Partition -> "shard.partition"
  | Create -> "serve.create"
  | Serve -> "serve"
  | Parse -> "workload.parse"
  | Feed -> "serve.feed"
  | Flush -> "serve.feed.flush"
  | Checkpoint -> "checkpoint"
  | Drain -> "serve.drain"
  | Check -> "serve.check"
  | Barrier -> "pool.barrier"
  | Restore -> "checkpoint.restore"

let code k =
  let rec find i = if kinds.(i) = k then i else find (i + 1) in
  find 0

type t = {
  kind : Stats.ivec;
  start : Stats.ivec;
  stop : Stats.ivec;
  parent : Stats.ivec;
}

let create () =
  { kind = Stats.ivec (); start = Stats.ivec (); stop = Stats.ivec ();
    parent = Stats.ivec () }

let length t = Stats.length t.kind

(* A finished span; returns its id. [parent] is -1 for a root. *)
let add t k ~parent ~start ~stop =
  let id = length t in
  Stats.push t.kind (code k);
  Stats.push t.start start;
  Stats.push t.stop stop;
  Stats.push t.parent parent;
  id

(* An open span, closed later with [close]. *)
let enter t k ~parent ~now = add t k ~parent ~start:now ~stop:(-1)

let close t id ~now = t.stop.Stats.data.(id) <- now

let kind t i = kinds.(Stats.get t.kind i)
let duration t i = Stats.get t.stop i - Stats.get t.start i

(* Durations of every closed span of kind [k], in recording order. *)
let durations t k =
  let v = Stats.ivec () in
  for i = 0 to length t - 1 do
    if kind t i = k && Stats.get t.stop i >= 0 then Stats.push v (duration t i)
  done;
  v

let total t k = Stats.sum (durations t k)

(* Chrome trace-event JSON of the spans from id [from] on: complete
   ("X") events in microseconds from the first of them, each carrying its
   id, its parent and the workload. *)
let write_chrome t ~from ~workload file =
  let n = length t in
  let t0 = if n <= from then 0 else Stats.get t.start from in
  let buf = Buffer.create ((n - from) * 110 + 64) in
  Buffer.add_string buf "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  let first = ref true in
  for i = from to n - 1 do
    if Stats.get t.stop i >= 0 then begin
      if not !first then Buffer.add_string buf ",\n";
      first := false;
      Printf.bprintf buf
        "{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\
         \"args\":{\"id\":%d,\"parent\":%d,\"workload\":%S}}"
        (name (kind t i))
        (float_of_int (Stats.get t.start i - t0) /. 1e3)
        (float_of_int (duration t i) /. 1e3)
        i (Stats.get t.parent i) workload
    end
  done;
  Buffer.add_string buf "]}\n";
  Out_channel.with_open_bin file (fun oc -> Buffer.output_buffer oc buf)

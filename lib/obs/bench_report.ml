module Stats = Rsin_util.Stats
module Clock = Rsin_util.Clock
module Json = Rsin_util.Json

type kind = Time | Alloc | Count | Yield

let kind_to_string = function
  | Time -> "time"
  | Alloc -> "alloc"
  | Count -> "count"
  | Yield -> "yield"

let kind_of_string = function
  | "time" -> Some Time
  | "alloc" -> Some Alloc
  | "count" -> Some Count
  | "yield" -> Some Yield
  | _ -> None

type metric = {
  kind : kind;
  unit_ : string;
  n : int;
  mean : float;
  ci95 : float;
  p50 : float;
  p95 : float;
  lo : float;
  hi : float;
}

type case = {
  case_name : string;
  mutable metrics : (string * metric) list;  (* newest first *)
}

type t = {
  bench : string;
  q : bool;
  e : (string * string) list;
  mutable cases : case list;  (* newest first *)
}

let iso8601 now =
  let tm = Unix.gmtime now in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec

let default_env () =
  let sha =
    match Sys.getenv_opt "GITHUB_SHA" with
    | Some s -> s
    | None -> Option.value (Sys.getenv_opt "RSIN_GIT_SHA") ~default:"unknown"
  in
  [ ("ocaml", Sys.ocaml_version); ("git_sha", sha);
    ("date", iso8601 (Unix.gettimeofday ())); ("os", Sys.os_type) ]

let create ?(quick = false) ?env bench =
  let e = match env with Some e -> e | None -> default_env () in
  { bench; q = quick; e; cases = [] }

let bench_name t = t.bench
let quick t = t.q
let env t = t.e

let case t name =
  match List.find_opt (fun c -> c.case_name = name) t.cases with
  | Some c -> c
  | None ->
    let c = { case_name = name; metrics = [] } in
    t.cases <- c :: t.cases;
    c

let case_names t = List.rev_map (fun c -> c.case_name) t.cases

(* --- recording ----------------------------------------------------------- *)

type measurement = {
  wall_us : float array;
  minor_words : float array;
}

let measure ?(warmup = 3) ?(runs = 10) f =
  if runs < 1 then invalid_arg "Bench_report.measure: runs must be >= 1";
  for _ = 1 to warmup do
    f ()
  done;
  let wall = Array.make runs 0. and words = Array.make runs 0. in
  for i = 0 to runs - 1 do
    let w0 = Gc.minor_words () in
    let t0 = Clock.now_ns () in
    f ();
    let dt = Clock.elapsed_us ~since:t0 in
    let w1 = Gc.minor_words () in
    wall.(i) <- dt;
    words.(i) <- w1 -. w0
  done;
  { wall_us = wall; minor_words = words }

let metric_of_samples kind unit_ xs =
  let acc = Stats.accum () in
  Array.iter (Stats.observe acc) xs;
  { kind; unit_; n = Array.length xs; mean = Stats.mean acc;
    ci95 = (if Array.length xs < 2 then 0. else Stats.ci95 acc);
    p50 = Stats.percentile xs 0.5; p95 = Stats.percentile xs 0.95;
    lo = Stats.min_obs acc; hi = Stats.max_obs acc }

let scalar_metric kind unit_ v =
  { kind; unit_; n = 1; mean = v; ci95 = 0.; p50 = v; p95 = v; lo = v; hi = v }

let put c name m =
  c.metrics <- (name, m) :: List.remove_assoc name c.metrics

let record_samples c ~name ~kind ?(unit_ = "") xs =
  if Array.length xs = 0 then
    invalid_arg "Bench_report.record_samples: empty sample array";
  put c name (metric_of_samples kind unit_ xs)

let record c ?prefix m =
  let name base = match prefix with None -> base | Some p -> p ^ "." ^ base in
  record_samples c ~name:(name "wall_us") ~kind:Time ~unit_:"us" m.wall_us;
  record_samples c ~name:(name "minor_words") ~kind:Alloc ~unit_:"words"
    m.minor_words

let record_count c ~name ?(unit_ = "") v =
  put c name (scalar_metric Count unit_ v)

let record_yield c ~name ?(unit_ = "") v =
  put c name (scalar_metric Yield unit_ v)

let record_counters c ?(prefix = "") registry =
  List.iter
    (fun (name, v) ->
      match v with
      | Metrics.Counter n ->
        record_count c ~name:(prefix ^ name) (float_of_int n)
      | Metrics.Gauge _ | Metrics.Histogram _ -> ())
    (Metrics.snapshot registry)

(* --- serialization ------------------------------------------------------- *)

let schema_version = 1

let metric_to_json m =
  Json.Obj
    [ ("kind", Json.Str (kind_to_string m.kind));
      ("unit", Json.Str m.unit_);
      ("n", Json.int m.n);
      ("mean", Json.Num m.mean);
      ("ci95", Json.Num m.ci95);
      ("p50", Json.Num m.p50);
      ("p95", Json.Num m.p95);
      ("min", Json.Num m.lo);
      ("max", Json.Num m.hi) ]

let to_json t =
  Json.Obj
    [ ("bench", Json.Str t.bench);
      ("schema", Json.int schema_version);
      ("quick", Json.Bool t.q);
      ("env", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) t.e));
      ( "cases",
        Json.Arr
          (List.rev_map
             (fun c ->
               Json.Obj
                 [ ("case", Json.Str c.case_name);
                   ( "metrics",
                     Json.Obj
                       (List.rev_map
                          (fun (name, m) -> (name, metric_to_json m))
                          c.metrics) ) ])
             t.cases) ) ]

module D = Json.Decode

let metric_of_json j =
  let num k = D.field k D.num j in
  { kind =
      D.field "kind"
        (fun v ->
          let s = D.str v in
          match kind_of_string s with
          | Some k -> k
          | None -> D.fail "unknown metric kind %S" s)
        j;
    unit_ = D.field "unit" D.str j;
    n = D.field "n" D.int j;
    mean = num "mean"; ci95 = num "ci95"; p50 = num "p50"; p95 = num "p95";
    lo = num "min"; hi = num "max" }

let case_of_json j =
  { case_name = D.field "case" D.str j;
    metrics = List.rev (D.field "metrics" (D.assoc metric_of_json) j) }

let of_json j =
  D.run ~what:"BENCH schema" (fun () ->
      let bench = D.field "bench" D.str j in
      let schema = D.field "schema" D.int j in
      if schema <> schema_version then
        D.fail "version %d, expected %d" schema schema_version;
      { bench;
        q = D.field "quick" D.bool j;
        e = D.field "env" (D.assoc D.str) j;
        cases = List.rev (D.field "cases" (D.list case_of_json) j) })

let equal a b =
  a.bench = b.bench && a.q = b.q && a.e = b.e
  && List.length a.cases = List.length b.cases
  && List.for_all2
       (fun ca cb ->
         ca.case_name = cb.case_name
         && List.rev ca.metrics = List.rev cb.metrics)
       a.cases b.cases

let filename t = Printf.sprintf "BENCH_%s.json" t.bench

let write ?dir t =
  let dir =
    match dir with
    | Some d -> d
    | None -> Option.value (Sys.getenv_opt "RSIN_BENCH_DIR") ~default:"."
  in
  let rec ensure_dir d =
    if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
      ensure_dir (Filename.dirname d);
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  ensure_dir dir;
  let path = Filename.concat dir (filename t) in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string (to_json t));
      output_char oc '\n');
  path

let read_file path =
  try
    let ic = open_in_bin path in
    let s =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    Result.bind (Json.parse s) of_json
  with Sys_error msg -> Error msg

(* --- comparison ---------------------------------------------------------- *)

type status = Same | Regression | Improvement | Only_baseline | Only_fresh

type delta = {
  d_case : string;
  d_metric : string;
  base : float;
  fresh : float;
  ratio : float;
  d_status : status;
}

let diff ?(time_tolerance = 2.0) ?(count_tolerance = 1.01) ~baseline fresh =
  if time_tolerance < 1. || count_tolerance < 1. then
    invalid_arg "Bench_report.diff: tolerances must be >= 1";
  if baseline.q <> fresh.q then
    invalid_arg
      (Printf.sprintf
         "Bench_report.diff: %s baselines ran %s mode but the fresh run is \
          %s mode — case parameters are not comparable"
         baseline.bench
         (if baseline.q then "quick" else "full")
         (if fresh.q then "quick" else "full"));
  let deltas = ref [] in
  let push d = deltas := d :: !deltas in
  let fresh_cases = List.rev fresh.cases in
  List.iter
    (fun bc ->
      match
        List.find_opt (fun fc -> fc.case_name = bc.case_name) fresh_cases
      with
      | None ->
        List.iter
          (fun (mname, m) ->
            push
              { d_case = bc.case_name; d_metric = mname; base = m.mean;
                fresh = nan; ratio = nan; d_status = Only_baseline })
          (List.rev bc.metrics)
      | Some fc ->
        List.iter
          (fun (mname, bm) ->
            match List.assoc_opt mname fc.metrics with
            | None ->
              push
                { d_case = bc.case_name; d_metric = mname; base = bm.mean;
                  fresh = nan; ratio = nan; d_status = Only_baseline }
            | Some fm ->
              (* The fresh report says what the metric means now, so a
                 baseline written before a count was marked a yield
                 still compares the right way round. *)
              let tol =
                match fm.kind with
                | Time | Alloc -> time_tolerance
                | Count | Yield -> count_tolerance
              in
              let b = bm.mean and f = fm.mean in
              let ratio = if b = 0. then nan else f /. b in
              (* [worse] > 1 when the fresh value is worse by that
                 factor, whichever way the metric points. *)
              let worse = if fm.kind = Yield then 1. /. ratio else ratio in
              let status =
                if b = 0. then
                  (* ratio undefined: fall back to one absolute unit *)
                  if Float.abs f <= tol -. 1. then Same
                  else if (f > 0.) <> (fm.kind = Yield) then Regression
                  else Improvement
                else if worse > tol then Regression
                else if worse < 1. /. tol then Improvement
                else Same
              in
              push
                { d_case = bc.case_name; d_metric = mname; base = b;
                  fresh = f; ratio; d_status = status })
          (List.rev bc.metrics);
        (* metrics only in the fresh run *)
        List.iter
          (fun (mname, fm) ->
            if not (List.mem_assoc mname bc.metrics) then
              push
                { d_case = bc.case_name; d_metric = mname; base = nan;
                  fresh = fm.mean; ratio = nan; d_status = Only_fresh })
          (List.rev fc.metrics))
    (List.rev baseline.cases);
  (* cases only in the fresh run *)
  List.iter
    (fun fc ->
      if
        not
          (List.exists (fun bc -> bc.case_name = fc.case_name)
             (List.rev baseline.cases))
      then
        List.iter
          (fun (mname, fm) ->
            push
              { d_case = fc.case_name; d_metric = mname; base = nan;
                fresh = fm.mean; ratio = nan; d_status = Only_fresh })
          (List.rev fc.metrics))
    fresh_cases;
  List.rev !deltas

let regressions deltas =
  List.filter (fun d -> d.d_status = Regression) deltas

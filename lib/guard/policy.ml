module Json = Rsin_util.Json

type shed_policy = Drop_tail | Deadline_aware

type t = {
  queue_bound : int;
  shed_policy : shed_policy;
  retry_base : int;
  retry_cap : int;
  retry_jitter : int;
  retry_budget : int;
  seed : int;
  flap_k : int;
  flap_window : int;
  quarantine_slots : int;
}

let make ?(queue_bound = 64) ?(shed_policy = Drop_tail) ?(retry_base = 1)
    ?(retry_cap = 64) ?(retry_jitter = 3) ?(retry_budget = 8) ?(seed = 0x9a)
    ?(flap_k = 3) ?(flap_window = 50) ?(quarantine_slots = 100) () =
  let err fmt = Printf.ksprintf (fun m -> Error ("Guard.Policy: " ^ m)) fmt in
  if queue_bound < 0 then err "queue_bound must be >= 0 (0 = unbounded)"
  else if retry_base < 1 then err "retry_base must be >= 1"
  else if retry_cap < retry_base then err "retry_cap must be >= retry_base"
  else if retry_jitter < 0 then err "retry_jitter must be >= 0"
  else if retry_budget < 0 then err "retry_budget must be >= 0"
  else if flap_k < 0 then err "flap_k must be >= 0 (0 = quarantine off)"
  else if flap_window < 1 then err "flap_window must be >= 1"
  else if quarantine_slots < 1 then err "quarantine_slots must be >= 1"
  else
    Ok
      { queue_bound; shed_policy; retry_base; retry_cap; retry_jitter;
        retry_budget; seed; flap_k; flap_window; quarantine_slots }

let v ?queue_bound ?shed_policy ?retry_base ?retry_cap ?retry_jitter
    ?retry_budget ?seed ?flap_k ?flap_window ?quarantine_slots () =
  match
    make ?queue_bound ?shed_policy ?retry_base ?retry_cap ?retry_jitter
      ?retry_budget ?seed ?flap_k ?flap_window ?quarantine_slots ()
  with
  | Ok t -> t
  | Error m -> invalid_arg m

let default = v ()

let shed_policy_to_string = function
  | Drop_tail -> "drop-tail"
  | Deadline_aware -> "deadline-aware"

let shed_policy_of_string = function
  | "drop-tail" -> Ok Drop_tail
  | "deadline-aware" -> Ok Deadline_aware
  | s -> Error (Printf.sprintf "Guard.Policy: unknown shed policy %S" s)

let to_json t =
  Json.Obj
    [ ("queue_bound", Json.int t.queue_bound);
      ("shed_policy", Json.Str (shed_policy_to_string t.shed_policy));
      ("retry_base", Json.int t.retry_base);
      ("retry_cap", Json.int t.retry_cap);
      ("retry_jitter", Json.int t.retry_jitter);
      ("retry_budget", Json.int t.retry_budget);
      ("seed", Json.int t.seed);
      ("flap_k", Json.int t.flap_k);
      ("flap_window", Json.int t.flap_window);
      ("quarantine_slots", Json.int t.quarantine_slots) ]

(* A field not given takes [make]'s default; [make] re-validates. *)
let of_json j =
  let module D = Json.Decode in
  Result.join
  @@ D.run ~what:"Guard.Policy" (fun () ->
         let int k = D.opt k D.int j in
         make ?queue_bound:(int "queue_bound")
           ?shed_policy:
             (D.opt "shed_policy"
                (fun v -> D.ok (shed_policy_of_string (D.str v)))
                j)
           ?retry_base:(int "retry_base") ?retry_cap:(int "retry_cap")
           ?retry_jitter:(int "retry_jitter")
           ?retry_budget:(int "retry_budget") ?seed:(int "seed")
           ?flap_k:(int "flap_k") ?flap_window:(int "flap_window")
           ?quarantine_slots:(int "quarantine_slots") ())

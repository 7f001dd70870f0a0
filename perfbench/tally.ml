(* Op outcomes and the failure share.

   An op fails on an error reply, a busy reply, a closed connection, a
   reply without a result digest, or a digest that differs from the
   expected one (a committed pin or the in-process replay). *)

module Proto = Locald_runtime.Proto
module Json = Locald_runtime.Telemetry.Json

(* What a decide reply carried: its result digest, or why it has none.
   [None] is a connection the daemon closed. *)
let digest_of_reply = function
  | None -> Error "closed"
  | Some json -> (
      let v = Proto.response_view json in
      if v.Proto.v_busy then Error "busy"
      else if not v.Proto.v_ok then Error "error"
      else
        match Option.bind v.Proto.v_result (Json.member "digest") with
        | Some (Json.String d) -> Ok d
        | _ -> Error "no-digest")

type verdict = Pass | Fail of string

let verdict ~expected = function
  | Error reason -> Fail reason
  | Ok d -> if d = expected then Pass else Fail "wrong-digest"

type t = {
  attempted : int;
  failed : int;
  reasons : (string * int) list;  (* failure reason -> count, sorted *)
}

let count verdicts =
  let reasons = Hashtbl.create 8 in
  let failed = ref 0 in
  List.iter
    (function
      | Pass -> ()
      | Fail r ->
          incr failed;
          Hashtbl.replace reasons r (1 + Option.value ~default:0 (Hashtbl.find_opt reasons r)))
    verdicts;
  {
    attempted = List.length verdicts;
    failed = !failed;
    reasons = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) reasons []);
  }

let fail_share t = Stats.share (float_of_int t.failed) (float_of_int t.attempted)

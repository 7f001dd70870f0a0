(* Result collection and the one-line JSON result.

   Informational lines go to stdout prefixed with "perfbench:"; the
   result object is always the last line. *)

module Json = Locald_runtime.Telemetry.Json

let values : (string, float) Hashtbl.t = Hashtbl.create 64

let set name v =
  ignore (Catalog.unit_of name);
  Hashtbl.replace values name v

let note fmt = Printf.ksprintf (fun s -> print_endline ("perfbench: " ^ s)) fmt

(* Every timing is printed with its sample count (and its samples,
   when there are few); a tail percentile with fewer than
   [Stats.min_beyond] samples beyond it is flagged as not reported, and
   [set_p90] keeps it out of the result. *)
let timing name ~unit_ xs =
  let s = Stats.summarise xs in
  if s.Stats.n <= 40 then
    note "samples %s: %s" name
      (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.4g") xs)));
  note "timing %s: n=%d median=%.6g %s p90=%.6g%s" name s.Stats.n s.Stats.median
    unit_ s.Stats.p90
    (if s.Stats.p90_reported then ""
     else
       Printf.sprintf " (p90 not reported: %d samples beyond it, %d needed)"
         (Stats.beyond 0.9 s.Stats.n) Stats.min_beyond);
  s

(* A tail percentile is set only when it is reportable; otherwise it
   reads 0, like a layer the workload does not reach. *)
let set_p90 name (s : Stats.summary) = if s.Stats.p90_reported then set name s.Stats.p90

(* The commit, read from the checkout's git metadata when there is
   any (a plain source tree has none). *)
let git_commit () =
  let read path =
    try
      let ic = open_in path in
      let line = input_line ic in
      close_in ic;
      Some (String.trim line)
    with Sys_error _ | End_of_file -> None
  in
  match read ".git/HEAD" with
  | Some head when String.length head > 5 && String.sub head 0 5 = "ref: " -> (
      let r = String.sub head 5 (String.length head - 5) in
      match read (Filename.concat ".git" r) with
      | Some c -> c
      | None -> "unknown")
  | Some c -> c
  | None -> "unknown"

let meta ~workload ~seed ~seconds ~trace ~jobs ~connections =
  print_endline
    ("perfbench: meta "
    ^ Json.to_string
        (Json.Obj
           [
             ("workload", Json.String workload);
             ("seed", Json.Int seed);
             ("seconds", Json.Int seconds);
             ("trace", Json.Bool trace);
             ("nproc", Json.Int (Domain.recommended_domain_count ()));
             ("ocaml", Json.String Sys.ocaml_version);
             ("commit", Json.String (git_commit ()));
             ("jobs", Json.Int jobs);
             ("connections", Json.Int connections);
             ( "locald_env",
               Json.List
                 (List.filter_map
                    (fun kv ->
                      if String.starts_with ~prefix:"LOCALD_" kv then Some (Json.String kv) else None)
                    (Array.to_list (Unix.environment ()))) );
           ]))

(* The result line: every metric of the run's set, in catalog order.
   Layers a workload does not exercise, and percentiles flagged as
   not reported, read 0 and are listed. *)
let emit ~trace ~correct ~attempted ~failed =
  let c = Catalog.get () in
  let names = if trace then c.Catalog.per_layer else c.Catalog.end_to_end in
  let missing = List.filter (fun (n, _) -> not (Hashtbl.mem values n)) names in
  if missing <> [] then
    note "not exercised by this workload or not reported (reported as 0): %s"
      (String.concat " " (List.map fst missing));
  let metric (name, unit_) =
    ( name,
      Json.Obj
        [
          ("value", Json.Float (Option.value ~default:0. (Hashtbl.find_opt values name)));
          ("unit", Json.String unit_);
        ] )
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int attempted);
            ("failed", Json.Int failed);
            ("metrics", Json.Obj (List.map metric names));
          ]))

(* The benchmark's workloads and metrics, with their units, as
   BENCHMARK.json lists them: the end-to-end set (untraced runs) and
   the per-layer set (traced runs). The file is read from the current
   directory, the checkout root run.py runs the benchmark from.

   Per-layer counts are per pass: one request on serve-mix, one whole
   workload pass (coverage, certify sweep, flood round) on the batch
   workloads. *)

module Json = Locald_runtime.Telemetry.Json

type t = {
  workloads : string list;
  end_to_end : (string * string) list;  (* name, unit *)
  per_layer : (string * string) list;
}

let file = "BENCHMARK.json"

let of_json json =
  let entries key =
    match Json.member key json with
    | Some (Json.List xs) -> xs
    | _ -> failwith (Printf.sprintf "%s has no %s list" file key)
  in
  let str k o =
    match Json.member k o with
    | Some (Json.String s) -> s
    | _ -> failwith (Printf.sprintf "%s: an entry has no string %s" file k)
  in
  let metrics key = List.map (fun o -> (str "name" o, str "unit" o)) (entries key) in
  {
    workloads = List.map (str "name") (entries "workloads");
    end_to_end = metrics "end_to_end";
    per_layer = metrics "per_layer";
  }

let spec =
  lazy
    (match In_channel.with_open_bin file In_channel.input_all with
    | text -> of_json (Json.of_string text)
    | exception Sys_error e -> failwith ("cannot read " ^ e))

let get () = Lazy.force spec

let unit_of name =
  let c = get () in
  match List.assoc_opt name c.end_to_end with
  | Some u -> u
  | None -> (
      match List.assoc_opt name c.per_layer with
      | Some u -> u
      | None -> invalid_arg ("Catalog.unit_of: " ^ name ^ " is not in " ^ file))

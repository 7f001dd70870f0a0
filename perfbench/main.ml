(* The locald benchmark: one workload per run, from a seed.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   prints informational "perfbench:" lines and, last, one JSON object
   {"correct", "attempted", "failed", "metrics"}: the end-to-end
   metrics with --trace 0, the per-layer metrics with --trace 1, as
   BENCHMARK.json lists them (read through Catalog). [main.exe --daemon
   SOCKET] is the serve-mix daemon this executable spawns. *)

open Locald_perfbench

let usage msg =
  prerr_endline ("perfbench: " ^ msg);
  prerr_endline
    ("usage: main.exe --workload (" ^ String.concat " | " (Catalog.get ()).Catalog.workloads
   ^ ") --seed N --seconds S --trace 0|1");
  exit 124

let () =
  match Array.to_list Sys.argv with
  | [ _; "--daemon"; socket ] -> Serve_mix.daemon socket
  | _ :: args ->
      let rec parse acc = function
        | [] -> acc
        | (("--workload" | "--seed" | "--seconds" | "--trace") as k) :: v :: rest ->
            parse ((k, v) :: acc) rest
        | a :: _ -> usage ("unexpected argument " ^ a)
      in
      let opts = parse [] args in
      let get k = match List.assoc_opt k opts with Some v -> v | None -> usage (k ^ " is required") in
      let int k =
        match int_of_string_opt (get k) with Some i -> i | None -> usage (k ^ " needs an integer")
      in
      let workload = get "--workload" in
      let seed = int "--seed" in
      let seconds = int "--seconds" in
      let trace =
        match get "--trace" with "0" -> false | "1" -> true | _ -> usage "--trace is 0 or 1"
      in
      if seconds < 1 then usage "--seconds must be positive";
      if not (List.mem workload (Catalog.get ()).Catalog.workloads) then
        usage ("unknown workload " ^ workload);
      let jobs, run =
        match workload with
        | "serve-mix" -> (Serve_mix.jobs, fun seconds -> Serve_mix.run ~seed ~seconds ~trace)
        | "coverage-scale" ->
            (Batch.coverage.Batch.jobs, fun seconds -> Batch.run Batch.coverage ~seconds ~trace)
        | "certify-scale" ->
            (Batch.certify.Batch.jobs, fun seconds -> Batch.run Batch.certify ~seconds ~trace)
        | _ ->
            let w = Batch.flood ~seed in
            (w.Batch.jobs, fun seconds -> Batch.run w ~seconds ~trace)
      in
      Report.meta ~workload ~seed ~seconds ~trace ~jobs
        ~connections:(if workload = "serve-mix" then Serve_mix.connections else 0);
      let correct, attempted, failed = run (float_of_int seconds) in
      Report.emit ~trace ~correct ~attempted ~failed
  | [] -> usage "no arguments"

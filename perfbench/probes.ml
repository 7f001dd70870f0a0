(* Outside-in probes: GC and CPU counters, peak RSS, and readers for
   the telemetry metrics snapshot ([Telemetry.metrics_json], also what
   the daemon's metrics reply carries). *)

module Json = Locald_runtime.Telemetry.Json

type gc = {
  minor : float;
  promoted : float;
  major : float;
  minor_gcs : int;
  major_gcs : int;
}

let gc_now () =
  let s = Gc.quick_stat () in
  {
    minor = s.Gc.minor_words;
    promoted = s.Gc.promoted_words;
    major = s.Gc.major_words;
    minor_gcs = s.Gc.minor_collections;
    major_gcs = s.Gc.major_collections;
  }

let gc_to_json g =
  Json.Obj
    [
      ("minor", Json.Float g.minor);
      ("promoted", Json.Float g.promoted);
      ("major", Json.Float g.major);
      ("minor_gcs", Json.Int g.minor_gcs);
      ("major_gcs", Json.Int g.major_gcs);
    ]

let num = function Some (Json.Float f) -> f | Some (Json.Int i) -> float_of_int i | _ -> 0.

let gc_of_json j =
  let f k = num (Json.member k j) in
  {
    minor = f "minor";
    promoted = f "promoted";
    major = f "major";
    minor_gcs = int_of_float (f "minor_gcs");
    major_gcs = int_of_float (f "major_gcs");
  }

(* Words allocated between two snapshots: minor + major - promoted
   (promoted words are counted in both). *)
let alloc_words g0 g1 =
  g1.minor -. g0.minor +. (g1.major -. g0.major) -. (g1.promoted -. g0.promoted)

(* The gc.* layer metrics, per pass. *)
let report_gc ~passes g0 g1 =
  let per x = Stats.share x (float_of_int passes) in
  Report.set "gc.minor_words" (per ((g1.minor -. g0.minor) /. 1e6));
  Report.set "gc.promoted_words" (per ((g1.promoted -. g0.promoted) /. 1e6));
  Report.set "gc.major_words" (per ((g1.major -. g0.major) /. 1e6));
  Report.set "gc.minor_collections" (per (float_of_int (g1.minor_gcs - g0.minor_gcs)));
  Report.set "gc.major_collections" (per (float_of_int (g1.major_gcs - g0.major_gcs)))

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* VmHWM of a process, in MiB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" (if pid = 0 then "self" else string_of_int pid) in
  match open_in path with
  | exception Sys_error _ -> 0.
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0.
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
                float_of_int kb /. 1024.)
        | _ -> scan ()
      in
      let v = scan () in
      close_in ic;
      v

let section name j = match Json.member name j with Some (Json.Obj _ as o) -> o | _ -> Json.Obj []

let counter j name = int_of_float (num (Json.member name (section "counters" j)))

let gauge j name = num (Json.member name (section "gauges" j))

(* Spans recorded so far: the sum of every span histogram's count. *)
let span_count j =
  match section "histograms" j with
  | Json.Obj hs -> List.fold_left (fun acc (_, h) -> acc + int_of_float (num (Json.member "count" h))) 0 hs
  | _ -> 0

let digest_of x = Digest.to_hex (Digest.string (Marshal.to_string x []))

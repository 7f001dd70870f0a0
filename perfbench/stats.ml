(* Sample summaries for the benchmark: medians and percentiles with
   their sample counts, and the reportability rule for tail
   percentiles. *)

(* [percentile p xs] is the nearest-rank [p]-quantile ([0 < p <= 1])
   of the samples: the smallest sample with at least [p * n] samples
   at or below it. Nearest-rank keeps every reported value an observed
   sample. *)
let percentile p xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  if not (p > 0. && p <= 1.) then invalid_arg "Stats.percentile: p outside (0, 1]";
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
  sorted.(max 1 (min n rank) - 1)

(* The median proper: the mean of the two middle samples when [n] is
   even. *)
let median xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.median: no samples";
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  if n mod 2 = 1 then sorted.(n / 2)
  else (sorted.((n / 2) - 1) +. sorted.(n / 2)) /. 2.

(* Samples strictly above the nearest-rank [p]-quantile's rank: the
   tail a percentile rests on. *)
let beyond p n =
  if n = 0 then 0 else n - int_of_float (Float.ceil (p *. float_of_int n))

let min_beyond = 10

(* A tail percentile is reported only when at least [min_beyond]
   samples lie beyond it; otherwise it is a near-maximum of a handful
   of samples and is flagged instead. *)
let reportable p n = beyond p n >= min_beyond

type summary = {
  n : int;
  median : float;
  p90 : float;
  p90_reported : bool;
}

let summarise xs =
  let n = Array.length xs in
  {
    n;
    median = median xs;
    p90 = percentile 0.9 xs;
    p90_reported = reportable 0.9 n;
  }

let mean xs =
  let n = Array.length xs in
  if n = 0 then 0. else Array.fold_left ( +. ) 0. xs /. float_of_int n

(* A ratio that is 0 rather than NaN on an empty base. *)
let share num den = if den = 0. then 0. else num /. den

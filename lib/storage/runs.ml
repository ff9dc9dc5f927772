module M = Map.Make (Int)

(* start sector -> length; runs are disjoint and never adjacent. *)
type t = int M.t

let empty = M.empty
let is_empty = M.is_empty
let cardinal = M.cardinal

(* The run with the greatest start at or below [s], if any. *)
let last_at_or_below s t = M.find_last_opt (fun k -> k <= s) t

let add t ~start ~len =
  let s, e, merged, t =
    match last_at_or_below start t with
    | Some (rs, rl) when rs + rl >= start ->
        (rs, max (start + len) (rs + rl), rl, M.remove rs t)
    | _ -> (start, start + len, 0, t)
  in
  (* Absorb the runs that start inside or right at the end of [s, e). *)
  let rec absorb e merged t =
    match M.find_first_opt (fun k -> k > s) t with
    | Some (rs, rl) when rs <= e ->
        absorb (max e (rs + rl)) (merged + rl) (M.remove rs t)
    | _ -> (M.add s (e - s) t, e - s - merged)
  in
  absorb e merged t

let covers t ~start ~len =
  match last_at_or_below start t with
  | Some (rs, rl) -> start + len <= rs + rl
  | None -> false

let take t ~head ~limit =
  (* Only the last run at or below [head] and the first one past it can
     be closest; every other run is farther than one of these two. *)
  let pick =
    match (last_at_or_below head t, M.find_first_opt (fun k -> k > head) t) with
    | None, None -> None
    | Some run, None | None, Some run -> Some run
    | Some ((ls, ll) as lo), Some ((hs, _) as hi) ->
        let le = ls + ll in
        let dlo = if head <= le then 0 else head - le in
        Some (if dlo <= hs - head then lo else hi)
  in
  Option.map
    (fun (rs, rl) ->
      let re = rs + rl in
      let start = if head > rs && head < re then head else rs in
      let chunk = min (re - start) limit in
      let t = M.remove rs t in
      let t = if start > rs then M.add rs (start - rs) t else t in
      let t =
        if start + chunk < re then M.add (start + chunk) (re - start - chunk) t
        else t
      in
      (t, start, chunk))
    pick

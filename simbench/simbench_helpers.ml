(* Pure helpers of the simulator benchmark: order statistics, stats
   fingerprints, the per-layer cost ledger and the result line.  Nothing
   here touches the simulator, so the test suite can pin them down. *)

(* ---- Order statistics ------------------------------------------------ *)

let median = function
  | [] -> invalid_arg "Simbench_helpers.median: no values"
  | xs ->
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      let n = Array.length a in
      if n land 1 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile of an ascending array: the smallest sample
   with at least [p] percent of the samples at or below it.  The epsilon
   keeps 99.99 % of 100000 at rank 99990 despite binary rounding. *)
let rank n p =
  max 1 (min n (int_of_float (Float.ceil ((p /. 100.0 *. float n) -. 1e-6))))

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Simbench_helpers.percentile: no samples";
  sorted.(rank n p - 1)

(* Tail percentiles considered, highest first. *)
let tail_candidates = [ 99.99; 99.9; 99.0; 90.0; 50.0 ]

(* A reported tail rests on at least this many samples above its rank. *)
let min_beyond = 10

let rests_on_enough n p = n - rank n p >= min_beyond

(* [tail_percentile n] is the highest candidate percentile that leaves at
   least [min_beyond] of [n] samples strictly above its rank; [None] when
   even the median does not. *)
let tail_percentile n = List.find_opt (rests_on_enough n) tail_candidates

type latency = {
  samples : int;
  p50 : int;
  tail_pct : float;  (* which percentile [tail] is; 0 with no samples *)
  tail : int;
  p99 : int option;  (* fixed p99, when it rests on [min_beyond] samples *)
}

let no_latency = { samples = 0; p50 = 0; tail_pct = 0.0; tail = 0; p99 = None }

(* [summarize xs] sorts [xs] in place and reports its median, its tail
   and its p99.  With too few samples for any tail, the maximum stands in
   and [tail_pct] is 100.  The tail's percentile moves with the sample
   count, so two tails compare only at the same [tail_pct]; [p99] is the
   fixed point that compares across runs. *)
let summarize xs =
  let n = Array.length xs in
  if n = 0 then no_latency
  else begin
    Array.sort Int.compare xs;
    let tail_pct, tail =
      match tail_percentile n with
      | Some p -> (p, percentile xs p)
      | None -> (100.0, xs.(n - 1))
    in
    let p99 = if rests_on_enough n 99.0 then Some (percentile xs 99.0) else None in
    { samples = n; p50 = percentile xs 50.0; tail_pct; tail; p99 }
  end

(* ---- Fingerprints ---------------------------------------------------- *)

(* FNV-style mix over the counter table, so two runs agree on the
   fingerprint exactly when every named counter agrees. *)
let mix h v =
  let h = (h lxor v) * 0x100000001b3 in
  h lxor (h lsr 29)

let mix_string h s = String.fold_left (fun h c -> mix h (Char.code c)) h s

let fingerprint fields =
  List.fold_left (fun h (k, v) -> mix (mix_string h k) v) 0x811c9dc5 fields

(* [mismatched fps] flags each fingerprint that differs from the first:
   every run of one seed must reproduce the same simulation. *)
let mismatched = function
  | [] -> []
  | first :: _ as fps -> List.map (fun f -> f <> first) fps

(* ---- Cost ledger ----------------------------------------------------- *)

(* One ledger line: a layer's observed work count and its measured host
   cost per unit of that work. *)
type entry = { layer : string; count : float; ns_per_unit : float }

let ledger_s entries =
  List.fold_left (fun acc e -> acc +. (e.count *. e.ns_per_unit)) 0.0 entries
  /. 1e9

(* [coverage entries ~run_s] is the share of [run_s] the ledger explains:
   1 means the per-unit costs account for all of it, below 1 leaves
   unmeasured work, above 1 means a cost run overstates its layer. *)
let coverage entries ~run_s = if run_s > 0.0 then ledger_s entries /. run_s else 0.0

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* ---- Output ---------------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string }

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Every digit the float has: the shortest decimal that reads back to the
   same value. *)
let json_float v =
  if not (Float.is_finite v) then invalid_arg "Simbench_helpers.json_float: not finite";
  let s = Printf.sprintf "%.15g" v in
  let s = if float_of_string s = v then s else Printf.sprintf "%.17g" v in
  if String.contains s '.' || String.contains s 'e' then s else s ^ ".0"

let json_object fields =
  "{"
  ^ String.concat ", "
      (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields)
  ^ "}"

(* The line the benchmark ends on. *)
let result_line ~correct ~attempted ~failed metrics =
  json_object
    [
      ("correct", string_of_bool correct);
      ("attempted", string_of_int attempted);
      ("failed", string_of_int failed);
      ( "metrics",
        json_object
          (List.map
             (fun m ->
               ( m.name,
                 json_object
                   [ ("value", json_float m.value); ("unit", json_string m.unit_) ]
               ))
             metrics) );
    ]

(* ---- Growable int buffer (probe and trace captures) ------------------ *)

module Ibuf = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 1024 0; n = 0 }

  let push t v =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- v;
    t.n <- t.n + 1

  let length t = t.n
  let get t i = t.a.(i)
  let to_array t = Array.sub t.a 0 t.n
end

(* Host-speed probe. This host's CPU capacity drifts in phases of a few
   seconds (one workload swings by half between phases, with user time
   tracking wall time), which no amount of repetition inside a run averages
   out when a phase outlasts the run. So every measured operation is
   followed by one fixed slice of benchmark-owned work — allocation,
   hashing and sorting, the same kind of work the library does — and each
   round's timings are rescaled by how much slower than [nominal] its
   slices ran. The library never runs inside a slice, so a change to the
   library moves the rescaled figures and a change of host phase does
   not. *)

let nominal = 0.5e-3

let slice () =
  let rng = Srfa_util.Prng.create ~seed:42 in
  let h = Hashtbl.create 16 in
  for i = 0 to 2_000 do
    Hashtbl.replace h (Srfa_util.Prng.int rng 500) i
  done;
  let l = List.init 2_000 (fun _ -> Srfa_util.Prng.int rng 1_000_000) in
  ignore (Sys.opaque_identity (List.sort compare l, Hashtbl.length h))

(* Seconds one slice takes now. *)
let sample () =
  let t0 = Span.now_ns () in
  slice ();
  float_of_int (Span.now_ns () - t0) /. 1e9

(* Host-speed calibration.

   A shared VM shares its cores' caches and memory with other tenants.
   On the 2-core VM the bounds were set on, the same NGINX session takes
   0.37 s or 0.58 s depending on the second it runs in, and whole minutes run
   slow when a neighbour is busy; wall and CPU time move together.  A
   run therefore samples a fixed calibration kernel before and after
   every set-up and every iteration, and reports each interval in
   reference seconds: its host seconds divided by [speed] of the
   samples around it (on the pool, lane by lane: see Nginx_bench).  A
   change to the program moves the rescaled times; a change in the
   neighbours' load mostly does not.  Over ten 10-second NGINX runs
   this cut the quartile spread of the median iteration time from 20%
   to 7% (normalising by the run's median sample instead only reached
   11%).

   The kernel is what the interpreter spends its time on: boxed Int64
   keys in a polymorphic Hashtbl, minor-heap allocation and pointer
   chasing.  On a 283-session trace on that VM it tracked session
   time with a correlation of 0.9 over 5-second windows, where an
   allocation-free arithmetic kernel did not track at all.  It runs on
   the same OCaml runtime as the program under test, so a change to GC
   parameters moves it too; such a change should be judged on the raw
   host times the traced run reports ([iter.wall_s], [host.calib_s]). *)

let pass () =
  let t0 = Probe.now_ns () in
  let tbl = Hashtbl.create 4096 in
  let acc = ref 0L in
  for i = 0 to 70_000 do
    let k = Int64.of_int (i land 4095) in
    match Hashtbl.find_opt tbl k with
    | Some v ->
      acc := Int64.add !acc v;
      Hashtbl.replace tbl k (Int64.mul v 3L)
    | None -> Hashtbl.replace tbl k (Int64.of_int i)
  done;
  ignore (Sys.opaque_identity !acc);
  float_of_int (Probe.now_ns () - t0) *. 1e-9

(** One calibration sample: the median of three passes of the kernel,
    so a single preempted pass does not count. *)
let sample () =
  match List.sort compare [ pass (); pass (); pass () ] with
  | [ _; m; _ ] -> m
  | _ -> assert false

(** The sample's median on the 2-core host the bounds were set on. *)
let reference_s = 0.008

(** Host seconds per reference second for an interval, from the
    samples taken around (and, on a pool, inside) it. *)
let speed samples =
  List.fold_left ( +. ) 0. samples /. float_of_int (List.length samples) /. reference_s

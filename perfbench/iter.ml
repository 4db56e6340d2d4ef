(* What one closed-loop iteration of a workload reports back. *)

type t = {
  sessions : int;  (** sessions attempted *)
  failures : string list;  (** one message per session whose known answer failed *)
  syscalls : int;  (** simulated syscalls executed by the sessions *)
  modelled : string;
      (** the iteration's modelled results (cycles, traps, syscalls,
          verdicts) in canonical text; every iteration of a run, traced
          or not, must produce the same text *)
  overhead_pct : float;  (** the paper's modelled overhead against vanilla *)
  hists : (int, int) Hashtbl.t list;  (** modelled cycles per on_syscall call *)
  jobs_s : float list;  (** host seconds of each pool job (the mt layer) *)
  ref_s : float option;
      (** the iteration's length in reference seconds (see Calib) when
          the workload times it itself: the pool pairs each job with
          samples taken on its own domain *)
  pool : Bastion_mt.Monitor_pool.stats option;
}

(** A workload after set-up.  [iterate] runs one iteration; with a
    recorder it traces, and [histogram] keeps the per-syscall cycle
    distribution.  Session ids in spans are [iter * 1000 + k]. *)
type workload = {
  lanes : int;  (** worker domains an iteration keeps busy *)
  warm : t;
      (** set-up's warm-up iteration, with the cycle histogram: the
          source of the modelled metrics and the reference every timed
          iteration must reproduce *)
  serial_job_s : float list;
      (** host seconds of each pool job run alone (set-up's serial
          references); empty for workloads without a pool *)
  iterate :
    iter:int -> probe:Probe.t option -> histogram:bool -> counts:Probe.counts -> t;
}

let session_id ~iter k = (iter * 1000) + k

(** The usual warm-up: one traced iteration with the histogram on, so
    every run also checks that tracing leaves the modelled results
    unchanged. *)
let warm_up iterate =
  iterate ~iter:0 ~probe:(Some (Probe.create ~base:(1 lsl 51))) ~histogram:true
    ~counts:(Probe.counts ())

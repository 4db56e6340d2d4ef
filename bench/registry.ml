(* The committed bench artifacts, one emitter each.

   An emitter names its artifact, the file it is committed as (relative
   to the repository root), and the function that measures and renders
   it at the committed size.  An emitter with a smoke size can also
   render the same pipeline on a fraction of the work, small enough for
   the test suite.  Every artifact derives only from the modelled clock,
   so regenerating it must reproduce the committed bytes; [check] holds
   every one of them to that. *)

module J = Report.Json

type emitter = {
  name : string;
  path : string;
  document : unit -> J.t;
  smoke : (unit -> J.t) option;
}

let all =
  [
    { name = "fastpath"; path = "BENCH_trap_fastpath.json";
      document = Fastpath.document; smoke = None };
    { name = "static"; path = "BENCH_static_pre_resolution.json";
      document = Static_preres.document; smoke = None };
    { name = "prefilter"; path = "BENCH_prefilter.json";
      document = Prefilter.document; smoke = None };
    { name = "parallel"; path = "BENCH_parallel_monitor.json";
      document = (fun () -> Throughput.document ());
      smoke = Some (fun () -> Throughput.document ~smoke:true ()) };
    { name = "fleet"; path = "BENCH_fleet.json";
      document = (fun () -> Fleet_bench.document ());
      smoke = Some (fun () -> Fleet_bench.document ~smoke:true ()) };
  ]

let find name = List.find_opt (fun e -> String.equal e.name name) all

(* The bytes an emission writes. *)
let render = J.to_string

let emit e =
  J.to_file e.path (e.document ());
  Printf.printf "%s artifact written to %s\n%!" e.name e.path

(** The emitters whose file under [dir] is missing or differs from the
    bytes paired with it. *)
let differing ~dir (rendered : (emitter * string) list) : emitter list =
  List.filter_map
    (fun (e, bytes) ->
      let path = Filename.concat dir e.path in
      match In_channel.with_open_bin path In_channel.input_all with
      | committed when String.equal committed bytes -> None
      | _ | (exception Sys_error _) -> Some e)
    rendered

(** Regenerate every artifact in memory and return those whose
    committed file under [dir] does not match. *)
let check ~dir = differing ~dir (List.map (fun e -> (e, render (e.document ()))) all)

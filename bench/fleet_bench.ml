(* The open-loop fleet bench (`bench/main.exe fleet`, `--emit fleet`,
   committed as BENCH_fleet.json).

   A heterogeneous fleet (mixed NGINX/SQLite/vsftpd small-scale
   tracees, skewed trap rates) is swept across offered-load points
   through the sharded monitor pool under each scheduler policy
   (static / least-loaded / steal); every point reports p50/p99/p99.9
   queue-wait and end-to-end latency in modelled cycles plus the
   per-shard utilisation spread and steal/migration counts, and each
   policy arm reports its detected saturation knee against the same
   ideal-aggregate capacity.  Everything derives from the modelled
   clock — regenerating the committed BENCH_fleet.json is
   byte-identical — and every point is checked against the serial
   reference simulation ([matches_serial], asserted by the artifact
   tests). *)

module F = Workloads.Fleet

(* The committed configuration is 64 tracees / 4 shards / 6 points; the
   smoke configuration runs the same pipeline on a fraction of the work. *)
let measure ?(smoke = false) () =
  if smoke then F.ablation ~tracees:16 ~shards:4 ~arrivals:1200 ~points:5 ()
  else F.ablation ~tracees:64 ~shards:4 ~arrivals:6000 ~points:6 ()

let document ?smoke () = F.ablation_json (measure ?smoke ())

let run () =
  print_endline "== Fleet: open-loop tail latency vs offered load ==";
  print_endline "";
  print_string (F.render_ablation (measure ()));
  print_endline ""

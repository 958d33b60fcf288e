(* Admission checks shared by every front end. Each check returns every
   problem it finds; a front end labels the checks it needs, and one
   printer renders the verdicts. *)

module Params = Cni_machine.Params
module Topology = Cni_atm.Topology
module Faults = Cni_atm.Faults
module Verify = Cni_aih.Aih_verify
module Mp = Cni_mp.Mp
module Collectives = Cni_mp.Collectives
module Collectives_ir = Cni_mp.Collectives_ir
module Lrc = Cni_dsm.Lrc

type check = (string Lazy.t, string list) result
type verdict = string * (string, string) result

let verdict label (c : check) : verdict =
  (label, match c with Ok d -> Ok (Lazy.force d) | Error es -> Error (String.concat "; " es))
let errors checks = List.concat_map (function Ok _ -> [] | Error es -> es) checks

let print ?(quiet = false) oc verdicts =
  let failed = List.length (List.filter (fun (_, v) -> Result.is_error v) verdicts) in
  List.iter
    (fun (label, v) ->
      match v with
      | Ok detail -> Printf.fprintf oc "ok    %s: %s\n" label detail
      | Error problem -> Printf.fprintf oc "FAIL  %s: %s\n" label problem)
    verdicts;
  if failed > 0 || not quiet then Printf.fprintf oc "doctor: %d check(s) failed\n" failed;
  flush oc;
  failed

let topology kind ~nodes =
  match Topology.validate kind ~nodes with
  | Ok () -> Ok (lazy (Topology.describe (Topology.of_kind kind ~nodes)))
  | Error e -> Error [ e ]

(* every crash must be matched by a later restart — a node that stays
   down strands its peers' blocking receives and the workload never
   drains *)
let unpaired_crashes sched =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun e ->
      let c, r = Option.value (Hashtbl.find_opt tbl e.Faults.e_node) ~default:(0, 0) in
      match e.Faults.e_fault with
      | Faults.Crash _ -> Hashtbl.replace tbl e.Faults.e_node (c + 1, r)
      | Faults.Restart -> Hashtbl.replace tbl e.Faults.e_node (c, r + 1))
    sched;
  Hashtbl.fold (fun node (c, r) acc -> if c <> r then node :: acc else acc) tbl []
  |> List.sort compare

let faults ~nodes (f : Faults.config) =
  let model = match Faults.validate ~nodes f with Ok () -> [] | Error es -> es in
  let unpaired =
    match unpaired_crashes f.Faults.schedule with
    | [] -> []
    | ns ->
        [
          Printf.sprintf
            "crash without matching restart on node %s (the workload could never drain)"
            (String.concat ", " (List.map string_of_int ns));
        ]
  in
  match model @ unpaired with
  | [] when Faults.is_none f -> Ok (lazy "fault-free")
  | [] ->
      Ok
        (lazy
          (Printf.sprintf "loss %g, corrupt %g, drop %g, %d windows, %d events"
             f.Faults.cell_loss f.Faults.cell_corrupt f.Faults.frame_drop
             (List.length f.Faults.link_down)
             (List.length f.Faults.schedule)))
  | es -> Error es

let spares_node0 (f : Faults.config) =
  if List.exists (fun e -> e.Faults.e_node = 0) f.Faults.schedule then
    Error [ "node 0 manages locks and barriers; crashing it deadlocks the DSM" ]
  else Ok (lazy "no crash on node 0")

let channels () =
  let claims =
    [
      ("dsm", Cni_dsm.Protocol.channel);
      ("mp", Mp.channel);
      ("mp-collectives", Mp.collectives_channel);
      ("dsm-collectives", Lrc.collectives_channel);
    ]
  in
  let ack = Cni_nic.Reliable.ack_channel in
  match
    List.filter_map
      (fun (name, c) ->
        if c = ack || List.length (List.filter (fun (_, c') -> c' = c) claims) > 1 then
          Some (Printf.sprintf "channel %d (%s) collides" c name)
        else None)
      claims
  with
  | [] -> Ok (lazy (Printf.sprintf "%d channels, ack channel %d free" (List.length claims) ack))
  | es -> Error es

let board_memory (params : Params.t) ~mc_bytes ~nic_collectives =
  let need =
    (Lrc.code_bytes * List.length Cni_dsm.Protocol.all_kinds)
    + Mp.code_bytes
    + if nic_collectives then Collectives.code_bytes else 0
  in
  let have = params.Params.nic_memory_bytes - mc_bytes in
  if need <= have then Ok (lazy (Printf.sprintf "handlers need %d of %d free bytes" need have))
  else
    Error
      [
        Printf.sprintf "handlers need %d bytes, board has %d after %d KB Message Cache" need
          have (mc_bytes / 1024);
      ]

let verify_all ?cell_budget programs =
  errors
    (List.map
       (fun (name, p) ->
         match Verify.verify ?cell_budget p with
         | Ok _ -> Ok ()
         | Error rjs -> Error [ Printf.sprintf "%s: %s" name (Verify.explain_all rjs) ])
       programs)

let collectives_firmware ~nodes ~nic_collectives =
  if nodes > Collectives.max_nodes && nic_collectives then
    Error
      [
        Printf.sprintf "the combining tree spans at most %d nodes (got %d)"
          Collectives.max_nodes nodes;
      ]
  else if nodes < 2 || nodes > Collectives.max_nodes then
    Ok (lazy (Printf.sprintf "no combining tree at %d node(s)" nodes))
  else
    let programs =
      List.concat_map
        (fun op ->
          List.map
            (fun rank ->
              let p = Collectives_ir.program ~op ~rank ~size:nodes ~fanout:2 in
              (p.Cni_aih.Aih_ir.name, p))
            (List.sort_uniq compare [ 0; 1; nodes - 1 ]))
        [ Collectives_ir.Sum; Collectives_ir.Max; Collectives_ir.Min ]
    in
    match verify_all programs with
    | [] -> Ok (lazy (Printf.sprintf "%d programs certified" (List.length programs)))
    | es -> Error es

(* every streaming handler a cluster of this size installs must fit the
   cell inter-arrival budget at the configured link rate — the admission
   Nic.install_handler_verified enforces, so a FAIL here is a run that
   would die on its first install *)
let line_rate params ~nodes =
  let budget = Params.line_rate_budget params in
  let size = max 2 nodes in
  let handlers =
    [
      ("reliable-rx", Cni_nic.Reliable_ir.rx_program ~size);
      ("reliable-tx-stamp", Cni_nic.Reliable_ir.tx_program ~size);
    ]
  in
  match verify_all ~cell_budget:budget handlers with
  | [] ->
      Ok
        (lazy
          (Printf.sprintf "%d handlers fit the %d-cycle/cell budget" (List.length handlers)
             budget))
  | es -> Error es

let rx_batch n =
  if n >= 1 then Ok (lazy (Printf.sprintf "one wakeup drains up to %d frame(s)" n))
  else Error [ Printf.sprintf "rx-batch must be >= 1 (got %d)" n ]

let app ~params ~topology:kind ~procs ~mc_bytes ~faults:f ~nic_collectives =
  [
    verdict
      (Printf.sprintf "topology %s fits %d node(s)" (Topology.kind_to_string kind) procs)
      (topology kind ~nodes:procs);
    verdict "fault model (probabilities, windows, schedule)" (faults ~nodes:procs f);
    verdict "fault schedule spares node 0 (DSM manager)" (spares_node0 f);
    verdict "ADC channel admission (distinct, ack channel reserved)" (channels ());
    verdict "board memory budget (handler code + Message Cache)"
      (board_memory params ~mc_bytes ~nic_collectives);
    verdict "collectives firmware WCET certificates"
      (collectives_firmware ~nodes:procs ~nic_collectives);
    verdict
      (Printf.sprintf "firmware line-rate admission (budget %d cycles/cell)"
         (Params.line_rate_budget params))
      (line_rate params ~nodes:procs);
  ]

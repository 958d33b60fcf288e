(** Admission checks, one implementation each, shared by every front end:
    [cni_sim doctor] and [cni_sim run] for an application cluster, and
    {!Scenario.validate} / {!Scenario.preflight} for a serving profile.

    A check returns [Ok detail] or every problem it found; the detail is
    rendered only when a verdict is made of it, so a validator that wants
    just the problems pays nothing for it. A front end labels the checks it
    needs with {!verdict}, and {!print} renders the verdicts. *)

type check = (string Lazy.t, string list) result

(** A labelled outcome: [Ok detail] or [Error problems] joined by ["; "]. *)
type verdict = string * (string, string) result

val verdict : string -> check -> verdict

(** Every problem of the given results, in order. *)
val errors : ('a, string list) result list -> string list

(** [print oc verdicts] writes one [ok]/[FAIL] line per verdict, then
    ["doctor: N check(s) failed"] — unless [quiet] (default [false]) and
    nothing failed. Returns [N]. *)
val print : ?quiet:bool -> out_channel -> verdict list -> int

(** {2 Checks} *)

(** The fabric shape fits [nodes] nodes; the detail describes it. *)
val topology : Cni_atm.Topology.kind -> nodes:int -> check

(** {!Cni_atm.Faults.validate} against [nodes] nodes, plus crash events
    without a later restart (which would strand the workload). *)
val faults : nodes:int -> Cni_atm.Faults.config -> check

(** The schedule never crashes node 0, the DSM's lock and barrier
    manager. *)
val spares_node0 : Cni_atm.Faults.config -> check

(** The protocol stacks' ADC channels are distinct and leave the
    reliable-delivery ack channel free. *)
val channels : unit -> check

(** The handlers of the DSM protocol ({!Cni_dsm.Lrc.code_bytes} per kind),
    message passing ({!Cni_mp.Mp.code_bytes}) and, with [nic_collectives],
    the combining tree ({!Cni_mp.Collectives.code_bytes}) fit the board
    beside an [mc_bytes] Message Cache. *)
val board_memory : Cni_machine.Params.t -> mc_bytes:int -> nic_collectives:bool -> check

(** The generated combining-tree firmware verifies at this size. Sizes
    outside [2 .. Collectives.max_nodes] have no firmware to check; above
    the cap they fail when [nic_collectives] asks for the tree. *)
val collectives_firmware : nodes:int -> nic_collectives:bool -> check

(** The streaming reliable-delivery handlers a cluster of [nodes] installs
    fit the per-cell WCET budget of [params]' link rate. *)
val line_rate : Cni_machine.Params.t -> nodes:int -> check

(** The receive coalescing depth is at least 1. *)
val rx_batch : int -> check

(** The preflight of an application run ([cni_sim doctor], and [cni_sim
    run] before it builds the cluster): topology, fault model, node 0,
    channels, board memory, collectives certificates and line-rate
    admission, labelled. Never raises. *)
val app :
  params:Cni_machine.Params.t ->
  topology:Cni_atm.Topology.kind ->
  procs:int ->
  mc_bytes:int ->
  faults:Cni_atm.Faults.config ->
  nic_collectives:bool ->
  verdict list

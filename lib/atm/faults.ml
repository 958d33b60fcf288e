module Time = Cni_engine.Time
module Rng = Cni_engine.Rng

type window = { w_node : int; w_from : Time.t; w_upto : Time.t }

type node_fault = Crash of { scrub : bool } | Restart

type event = { e_at : Time.t; e_node : int; e_fault : node_fault }

type config = {
  seed : int;
  cell_loss : float;
  cell_corrupt : float;
  frame_drop : float;
  link_down : window list;
  schedule : event list;
}

let none =
  { seed = 42; cell_loss = 0.; cell_corrupt = 0.; frame_drop = 0.; link_down = [];
    schedule = [] }

let is_none c =
  c.cell_loss = 0. && c.cell_corrupt = 0. && c.frame_drop = 0. && c.link_down = []
  && c.schedule = []

let with_loss ?(seed = 42) p = { none with seed; cell_loss = p }

(* Normalization of link-down windows: per node, sort by start and merge
   overlapping or adjacent windows into one. Counters and down-time
   accounting over the normalized list cannot double-count an instant that
   two declared windows both cover. *)
let normalize_windows windows =
  let by_node = Hashtbl.create 8 in
  List.iter
    (fun w ->
      let l = Option.value (Hashtbl.find_opt by_node w.w_node) ~default:[] in
      Hashtbl.replace by_node w.w_node (w :: l))
    windows;
  let nodes = Hashtbl.fold (fun n _ acc -> n :: acc) by_node [] in
  List.concat_map
    (fun node ->
      let ws =
        List.sort
          (fun a b -> compare (a.w_from, a.w_upto) (b.w_from, b.w_upto))
          (Hashtbl.find by_node node)
      in
      let rec merge = function
        | a :: b :: rest when b.w_from <= a.w_upto ->
            merge ({ a with w_upto = Time.max a.w_upto b.w_upto } :: rest)
        | a :: rest -> a :: merge rest
        | [] -> []
      in
      merge ws)
    (List.sort compare nodes)

type t = { cfg : config; windows : window list; rng : Rng.t }

let check_prob name p =
  if not (p >= 0. && p <= 1.) then
    invalid_arg (Printf.sprintf "Faults.create: %s must be in [0,1]" name)

let check_window w =
  if w.w_node < 0 then invalid_arg "Faults.create: window node must be >= 0";
  if w.w_from > w.w_upto then invalid_arg "Faults.create: reversed link-down window (start > stop)";
  if w.w_upto = w.w_from then invalid_arg "Faults.create: empty link-down window"

let create cfg =
  check_prob "cell_loss" cfg.cell_loss;
  check_prob "cell_corrupt" cfg.cell_corrupt;
  check_prob "frame_drop" cfg.frame_drop;
  List.iter check_window cfg.link_down;
  { cfg; windows = normalize_windows cfg.link_down; rng = Rng.create ~seed:cfg.seed }

let config t = t.cfg

type verdict = Pass | Corrupt of int | Lose_cells of int | Drop

(* Count the cells an independent per-cell event hits. Disabled classes
   consume no draws; the same config replays the same stream. *)
let hit_cells t p ~cells =
  if p <= 0. then 0
  else begin
    let n = ref 0 in
    for _ = 1 to cells do
      if Rng.float t.rng < p then incr n
    done;
    !n
  end

let judge t ~cells =
  if t.cfg.frame_drop > 0. && Rng.float t.rng < t.cfg.frame_drop then Drop
  else
    match hit_cells t t.cfg.cell_loss ~cells with
    | n when n > 0 -> Lose_cells n
    | _ -> (
        match hit_cells t t.cfg.cell_corrupt ~cells with
        | n when n > 0 -> Corrupt n
        | _ -> Pass)

let link_down t ~node ~now =
  List.exists (fun w -> w.w_node = node && now >= w.w_from && now < w.w_upto) t.windows

(* ------------------------------------------------------------------ *)
(* Node-fault schedule                                                 *)
(* ------------------------------------------------------------------ *)

(* Declared order breaks time ties, so a stable sort keeps "crash then
   restart at the same instant" an error the validator can report instead
   of a silent reordering. *)
let sorted_schedule cfg =
  List.stable_sort (fun a b -> compare a.e_at b.e_at) cfg.schedule

let validate ~nodes cfg =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let prob name p = if not (p >= 0. && p <= 1.) then err "%s %g outside [0,1]" name p in
  prob "loss" cfg.cell_loss;
  prob "corrupt" cfg.cell_corrupt;
  prob "drop" cfg.frame_drop;
  List.iter
    (fun w ->
      if w.w_node < 0 || w.w_node >= nodes then
        err "link-down window names node %d (cluster has %d)" w.w_node nodes;
      if w.w_from > w.w_upto then
        err "link-down window for node %d is reversed (start > stop)" w.w_node
      else if w.w_from = w.w_upto then
        err "link-down window for node %d is empty" w.w_node)
    cfg.link_down;
  (* replay the schedule chronologically, tracking each node's liveness *)
  let crashed = Hashtbl.create 8 in
  List.iter
    (fun e ->
      if e.e_node < 0 || e.e_node >= nodes then
        err "schedule event at %.0f us names node %d (cluster has %d)"
          (Time.to_us_float e.e_at) e.e_node nodes
      else
        match e.e_fault with
        | Crash _ ->
            if Hashtbl.mem crashed e.e_node then
              err "node %d crashes at %.0f us while already crashed"
                e.e_node (Time.to_us_float e.e_at)
            else Hashtbl.replace crashed e.e_node e.e_at
        | Restart -> (
            match Hashtbl.find_opt crashed e.e_node with
            | None ->
                err "node %d restarts at %.0f us without a prior crash"
                  e.e_node (Time.to_us_float e.e_at)
            | Some at when at = e.e_at ->
                err "node %d restarts at %.0f us, the same instant it crashes"
                  e.e_node (Time.to_us_float e.e_at)
            | Some _ -> Hashtbl.remove crashed e.e_node))
    (sorted_schedule cfg);
  match List.rev !errors with [] -> Ok () | es -> Error es

(* ------------------------------------------------------------------ *)
(* Text format                                                         *)
(* ------------------------------------------------------------------ *)

(* One directive per line; '#' starts a comment; times are integer
   microseconds of engine time:

     seed 7
     loss 1e-4
     corrupt 0
     drop 0
     down NODE FROM_US UPTO_US
     crash NODE AT_US [scrub]
     restart NODE AT_US

   A host grammar that embeds this one renames the seed directive with
   [seed_key]; every other directive is spelled the same everywhere. *)

let directive ?(seed_key = "seed") cfg words =
  let ( let* ) = Result.bind in
  let int_of s =
    match int_of_string_opt s with
    | Some n -> Ok n
    | None -> Error (Printf.sprintf "expected an integer, got %S" s)
  in
  let prob set p =
    match float_of_string_opt p with
    | Some f -> Some (Ok (set f))
    | None -> Some (Error (Printf.sprintf "expected a number, got %S" p))
  in
  let event n at e_fault =
    let* e_node = int_of n in
    let* at_us = int_of at in
    Ok { cfg with schedule = cfg.schedule @ [ { e_node; e_at = Time.us at_us; e_fault } ] }
  in
  match words with
  | [ k; s ] when k = seed_key -> Some (Result.map (fun seed -> { cfg with seed }) (int_of s))
  | [ "loss"; p ] -> prob (fun cell_loss -> { cfg with cell_loss }) p
  | [ "corrupt"; p ] -> prob (fun cell_corrupt -> { cfg with cell_corrupt }) p
  | [ "drop"; p ] -> prob (fun frame_drop -> { cfg with frame_drop }) p
  | [ "down"; n; a; b ] ->
      Some
        (let* w_node = int_of n in
         let* from_us = int_of a in
         let* upto_us = int_of b in
         let w = { w_node; w_from = Time.us from_us; w_upto = Time.us upto_us } in
         Ok { cfg with link_down = cfg.link_down @ [ w ] })
  | [ "crash"; n; at ] -> Some (event n at (Crash { scrub = false }))
  | [ "crash"; n; at; "scrub" ] -> Some (event n at (Crash { scrub = true }))
  | [ "restart"; n; at ] -> Some (event n at Restart)
  | k :: _ when k = seed_key -> Some (Error (k ^ " takes one integer"))
  | ("loss" | "corrupt" | "drop") :: _ -> Some (Error (List.hd words ^ " takes one number"))
  | "down" :: _ -> Some (Error "down takes exactly three fields: NODE FROM_US UPTO_US")
  | "crash" :: _ -> Some (Error "crash takes NODE AT_US [scrub]")
  | "restart" :: _ -> Some (Error "restart takes exactly two fields: NODE AT_US")
  | _ -> None

let config_of_string text =
  let strip line =
    match String.index_opt line '#' with Some i -> String.sub line 0 i | None -> line
  in
  let words line =
    String.split_on_char ' ' (String.trim (strip line))
    |> List.concat_map (String.split_on_char '\t')
    |> List.filter (fun s -> s <> "")
  in
  let rec go lineno cfg = function
    | [] -> Ok cfg
    | line :: rest -> (
        let fail msg = Error (Printf.sprintf "line %d: %s" lineno msg) in
        match words line with
        | [] -> go (lineno + 1) cfg rest
        | ws -> (
            match directive cfg ws with
            | Some (Ok cfg) -> go (lineno + 1) cfg rest
            | Some (Error msg) -> fail msg
            | None ->
                fail
                  (Printf.sprintf
                     "unknown directive %S (expected seed, loss, corrupt, drop, down, crash, \
                      restart)"
                     (List.hd ws))))
  in
  go 1 none (String.split_on_char '\n' text)

let us_of t = Time.to_ps t / 1_000_000

let config_to_string ?(seed_key = "seed") cfg =
  let b = Buffer.create 256 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt in
  if cfg <> none then begin
    line "%s %d" seed_key cfg.seed;
    line "loss %.17g" cfg.cell_loss;
    line "corrupt %.17g" cfg.cell_corrupt;
    line "drop %.17g" cfg.frame_drop;
    List.iter
      (fun w -> line "down %d %d %d" w.w_node (us_of w.w_from) (us_of w.w_upto))
      cfg.link_down;
    List.iter
      (fun e ->
        match e.e_fault with
        | Crash { scrub } ->
            line "crash %d %d%s" e.e_node (us_of e.e_at) (if scrub then " scrub" else "")
        | Restart -> line "restart %d %d" e.e_node (us_of e.e_at))
      cfg.schedule
  end;
  Buffer.contents b

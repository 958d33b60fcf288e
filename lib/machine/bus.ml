module Engine = Cni_engine.Engine
module Sync = Cni_engine.Sync
module Time = Cni_engine.Time

type dir = Cpu_writeback | Dma_to_memory | Dma_from_memory

type stats = { dma_transfers : int; dma_bytes : int; writeback_lines : int }

type t = {
  eng : Engine.t;
  p : Params.t;
  clock : Sync.Clock.t;  (* DMA transfers serialise in request order *)
  mutable snoopers : (dir:dir -> addr:int -> bytes:int -> unit) list;
  mutable s_dma_transfers : int;
  mutable s_dma_bytes : int;
  mutable s_writeback_lines : int;
}

let create eng p =
  {
    eng;
    p;
    clock = Sync.Clock.create eng;
    snoopers = [];
    s_dma_transfers = 0;
    s_dma_bytes = 0;
    s_writeback_lines = 0;
  }

let params t = t.p
let register_snooper t f = t.snoopers <- f :: t.snoopers
let notify t ~dir ~addr ~bytes = List.iter (fun f -> f ~dir ~addr ~bytes) t.snoopers

let writeback_lines t lines =
  let line = t.p.Params.line_bytes in
  let total = ref Time.zero in
  List.iter
    (fun la ->
      t.s_writeback_lines <- t.s_writeback_lines + 1;
      notify t ~dir:Cpu_writeback ~addr:la ~bytes:line;
      total := Time.( + ) !total (Params.bus_transfer t.p ~bytes:line))
    lines;
  !total

let dma_time t ~bytes = Params.bus_transfer t.p ~bytes

let check_dma_dir = function
  | Dma_to_memory | Dma_from_memory -> ()
  | Cpu_writeback -> invalid_arg "Bus.dma: Cpu_writeback is not a DMA direction"

(* the transfer's last word has crossed the bus *)
let dma_done t ~dir ~addr ~bytes =
  t.s_dma_transfers <- t.s_dma_transfers + 1;
  t.s_dma_bytes <- t.s_dma_bytes + bytes;
  notify t ~dir ~addr ~bytes

let dma t ~dir ~addr ~bytes =
  check_dma_dir dir;
  Sync.Clock.hold t.clock (dma_time t ~bytes);
  dma_done t ~dir ~addr ~bytes

let dma_then t ~dir ~addr ~bytes k =
  check_dma_dir dir;
  Engine.at t.eng (Sync.Clock.reserve t.clock (dma_time t ~bytes)) (fun () ->
      dma_done t ~dir ~addr ~bytes;
      k ())

let stats t =
  {
    dma_transfers = t.s_dma_transfers;
    dma_bytes = t.s_dma_bytes;
    writeback_lines = t.s_writeback_lines;
  }

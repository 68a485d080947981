module Prog = Dfd_dag.Prog
module Prng = Dfd_structures.Prng
open Prog

(* Layout: cell array (centroid + mass, 8 words per cell) at 0; bodies
   after it.  Cells are indexed heap-style over a fixed depth-4 octree
   (1 + 8 + 64 + 512 = 585 cells); mutex ids = cell indices. *)

let tree_depth = 4

let n_tree_cells =
  let rec go l acc pow = if l > tree_depth then acc else go (l + 1) (acc + pow) (8 * pow) in
  go 0 0 1

let prog ~bodies ~block ~tree_only () =
  let cell_words = 8 in
  let body_base = n_tree_cells * cell_words in
  let rng = Prng.create 77 in
  (* bodies are mostly Morton-ordered (consecutive bodies land in
     neighbouring leaf cells), but every 5th body is an unsorted straggler
     landing in a random remote leaf — its insertion contends with
     whichever processor owns that region, as in a partially-sorted real
     input *)
  let leaf_of_body =
    Array.init bodies (fun b ->
        if b mod 3 = 0 then Prng.int rng 4096
        else begin
          let base = b * 4096 / bodies in
          let j = Prng.int rng 33 - 16 in
          let l = base + j in
          if l < 0 then 0 else if l > 4095 then 4095 else l
        end)
  in
  let cell_addr c = c * cell_words in
  (* level starts in the heap-style index: 0, 1, 9, 73, 585 *)
  let leaf_start = 585 in
  (* The address arrays are built once per program and shared by every
     body that uses them.  descent.(l): the path of cells from the root to
     leaf [l] (depth-4 octree). *)
  let descent =
    Array.init 4096 (fun l ->
        Array.map cell_addr [| 0; 1 + (l / 512); 9 + (l / 64); 73 + (l / 8); leaf_start + l |])
  in
  let insert_body b =
    let l = leaf_of_body.(b) in
    (* read-only descent, then lock the leaf cell being modified; every 8th
       insertion splits a cell and must also lock its parent *)
    touch descent.(l)
    >> work 2
    >> critical (leaf_start + l) (touch [| cell_addr (leaf_start + l) |] >> work 3)
    (* cell splits and centre-of-mass updates lock shared upper cells for
       whole split operations — the contention Figure 17 measures; the
       eight level-1 cells are hot because every region funnels into them *)
    >> (if b mod 2 = 0 then critical (73 + (l / 8)) (work 8) else nothing)
    >> (if b mod 2 = 1 then critical (1 + (l / 512)) (work 10) else nothing)
    >> touch [| body_base + b |]
  in
  let alloc_leaf_if_new b =
    (* every ~8th insertion allocates a new cell record *)
    if b mod 8 = 0 then alloc (cell_words * 8) else nothing
  in
  let build_block blk =
    let lo = blk * block and hi = min bodies ((blk + 1) * block) in
    let rec go b =
      if b >= hi then nothing else alloc_leaf_if_new b >> insert_body b >> go (b + 1)
    in
    go lo
  in
  let nblocks = (bodies + block - 1) / block in
  let build = par_iter ~lo:0 ~hi:nblocks build_block in
  if tree_only then finish build
  else begin
    (* walk.(r): the force traversal of a body in 16-leaf region [r] — the
       approximated top of the tree, the level-3 cells of the region's
       neighbourhood, and the region's own leaves; the opening test
       revisits each cell (repeat 2) *)
    let walk =
      Array.init 256 (fun r ->
          let once =
            Array.concat
              [
                Array.init 9 cell_addr;
                Array.init 8 (fun i -> cell_addr (73 + ((r / 4 * 8) + i)));
                Array.init 16 (fun i -> cell_addr (leaf_start + ((r * 16) + i)));
              ]
          in
          Array.append once once)
    in
    let force_body b =
      touch walk.(leaf_of_body.(b) / 16)
      >> work 16
      >> touch [| body_base + b |]
    in
    let force_block blk =
      let lo = blk * block and hi = min bodies ((blk + 1) * block) in
      let rec go b = if b >= hi then nothing else force_body b >> go (b + 1) in
      go lo
    in
    let forces = par_iter ~lo:0 ~hi:nblocks force_block in
    finish (build >> forces)
  end

let bench ?(bodies = 4096) grain =
  let block = match grain with Workload.Medium -> 64 | Workload.Fine -> 16 in
  Workload.make ~name:"BarnesHut"
    ~description:
      (Printf.sprintf "Barnes-Hut, %d bodies, depth-%d octree, %d-body blocks" bodies tree_depth
         block)
    ~grain
    ~prog:(prog ~bodies ~block ~tree_only:false)

let treebuild ?(bodies = 4096) grain =
  let block = match grain with Workload.Medium -> 64 | Workload.Fine -> 16 in
  Workload.make ~name:"BH-TreeBuild"
    ~description:
      (Printf.sprintf "Barnes-Hut lock-based tree build alone, %d bodies (Figure 17)" bodies)
    ~grain
    ~prog:(prog ~bodies ~block ~tree_only:true)

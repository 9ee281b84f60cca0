type t = { words : int array; capacity : int }

let bits = Sys.int_size

let create capacity =
  if capacity < 0 then invalid_arg "Bitset.create: negative capacity";
  { words = Array.make ((capacity + bits - 1) / bits) 0; capacity }

let check t i op =
  if i < 0 || i >= t.capacity then
    invalid_arg (Printf.sprintf "Bitset.%s: %d outside [0, %d)" op i t.capacity)

let add t i =
  check t i "add";
  t.words.(i / bits) <- t.words.(i / bits) lor (1 lsl (i mod bits))

let remove t i =
  check t i "remove";
  t.words.(i / bits) <- t.words.(i / bits) land lnot (1 lsl (i mod bits))

let mem t i =
  check t i "mem";
  t.words.(i / bits) land (1 lsl (i mod bits)) <> 0

let clear t = Array.fill t.words 0 (Array.length t.words) 0

let is_empty t = Array.for_all (fun w -> w = 0) t.words

let popcount w =
  let rec go w acc = if w = 0 then acc else go (w lsr 1) (acc + (w land 1)) in
  go w 0

let cardinal t = Array.fold_left (fun acc w -> acc + popcount w) 0 t.words

let to_list t =
  let acc = ref [] in
  Array.iteri
    (fun wi w ->
      if w <> 0 then
        for b = 0 to bits - 1 do
          if w land (1 lsl b) <> 0 then acc := ((wi * bits) + b) :: !acc
        done)
    t.words;
  List.rev !acc

let iter_from nest ~level f =
  let counts = Array.of_list (Nest.trip_counts nest) in
  let depth = Array.length counts in
  let point = Array.make depth 0 in
  (* Odometer walk: increment the innermost position, carrying outward;
     the levels above [level] never move. *)
  let rec advance d =
    if d < level then false
    else begin
      point.(d) <- point.(d) + 1;
      if point.(d) < counts.(d) then true
      else begin
        point.(d) <- 0;
        advance (d - 1)
      end
    end
  in
  let rec go () =
    f point;
    if advance (depth - 1) then go ()
  in
  go ()

let iter nest f = iter_from nest ~level:0 f

let env_of_point nest point =
  let vars = Array.of_list (Nest.loop_vars nest) in
  fun name ->
    let rec find i =
      if i >= Array.length vars then
        invalid_arg
          (Printf.sprintf
             "Iterspace.env_of_point: %s is not a loop variable of nest %s"
             name nest.Nest.name)
      else if vars.(i) = name then point.(i)
      else find (i + 1)
    in
    find 0

let linear nest point =
  let counts = Nest.trip_counts nest in
  let step acc (c, p) = (acc * c) + p in
  List.fold_left step 0 (List.combine counts (Array.to_list point))

let point_of_linear nest n =
  let counts = Array.of_list (Nest.trip_counts nest) in
  let depth = Array.length counts in
  let point = Array.make depth 0 in
  let rest = ref n in
  for d = depth - 1 downto 0 do
    point.(d) <- !rest mod counts.(d);
    rest := !rest / counts.(d)
  done;
  point

let element_linear decl coords =
  let dims = Array.of_list decl.Decl.dims in
  let acc = ref 0 in
  Array.iteri (fun d c -> acc := (!acc * dims.(d)) + c) coords;
  !acc

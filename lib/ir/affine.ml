module Smap = Map.Make (String)

type t = { const : int; terms : int Smap.t }
(* Invariant: [terms] never maps a variable to 0. *)

let normalize terms = Smap.filter (fun _ c -> c <> 0) terms

let const c = { const = c; terms = Smap.empty }

let var ?(coeff = 1) v =
  { const = 0; terms = normalize (Smap.singleton v coeff) }

let add a b =
  let merge _ x y =
    match (x, y) with
    | Some cx, Some cy -> if cx + cy = 0 then None else Some (cx + cy)
    | Some c, None | None, Some c -> Some c
    | None, None -> None
  in
  { const = a.const + b.const; terms = Smap.merge merge a.terms b.terms }

let scale k a =
  if k = 0 then const 0
  else { const = k * a.const; terms = Smap.map (fun c -> k * c) a.terms }

let sub a b = add a (scale (-1) b)
let constant a = a.const

let coeff a v = match Smap.find_opt v a.terms with Some c -> c | None -> 0
let coeffs a = Smap.bindings a.terms
let vars a = List.map fst (Smap.bindings a.terms)
let is_const a = Smap.is_empty a.terms

let eval a ~lookup =
  Smap.fold (fun v c acc -> acc + (c * lookup v)) a.terms a.const

let subst a v replacement =
  let c = coeff a v in
  if c = 0 then a
  else
    add
      { const = a.const; terms = normalize (Smap.remove v a.terms) }
      (scale c replacement)

let equal a b = a.const = b.const && Smap.equal Int.equal a.terms b.terms

let compare a b =
  let c = Int.compare a.const b.const in
  if c <> 0 then c else Smap.compare Int.compare a.terms b.terms

(* The one affine renderer: terms in variable order, "+" before every
   non-negative term but the first, unit coefficients bare, then the
   constant when non-zero. Buffer-based so reference names cost no
   formatter; [pp] prints the same bytes. *)
let add_to_buffer b a =
  if Smap.is_empty a.terms then Buffer.add_string b (string_of_int a.const)
  else begin
    let first = ref true in
    Smap.iter
      (fun v c ->
        if c >= 0 && not !first then Buffer.add_char b '+';
        first := false;
        if c = 1 then Buffer.add_string b v
        else if c = -1 then begin
          Buffer.add_char b '-';
          Buffer.add_string b v
        end
        else begin
          Buffer.add_string b (string_of_int c);
          Buffer.add_char b '*';
          Buffer.add_string b v
        end)
      a.terms;
    if a.const > 0 then begin
      Buffer.add_char b '+';
      Buffer.add_string b (string_of_int a.const)
    end
    else if a.const < 0 then Buffer.add_string b (string_of_int a.const)
  end

let to_string a =
  let b = Buffer.create 16 in
  add_to_buffer b a;
  Buffer.contents b

let pp ppf a = Format.pp_print_string ppf (to_string a)

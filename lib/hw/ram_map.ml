open Srfa_ir

type location = Internal of { bank : int; blocks : int } | External

type t = {
  device : Device.t;
  places : (string, location) Hashtbl.t;
  blocks_used : int;
  ports_override : int option;
}

let build device arrays =
  (* Largest-first so small arrays are the ones pushed off chip last-ditch;
     ties resolved by name for determinism. *)
  let sorted =
    List.sort
      (fun a b ->
        let c = Int.compare (Decl.size_bits b) (Decl.size_bits a) in
        if c <> 0 then c else String.compare a.Decl.name b.Decl.name)
      arrays
  in
  let places = Hashtbl.create 16 in
  let next_bank = ref 0 in
  let blocks_left = ref device.Device.ram_blocks in
  let used = ref 0 in
  let place d =
    let blocks = Device.blocks_for device ~bits:(Decl.size_bits d) in
    if blocks <= !blocks_left then begin
      Hashtbl.replace places d.Decl.name (Internal { bank = !next_bank; blocks });
      incr next_bank;
      blocks_left := !blocks_left - blocks;
      used := !used + blocks
    end
    else Hashtbl.replace places d.Decl.name External
  in
  List.iter place sorted;
  { device; places; blocks_used = !used; ports_override = None }

let build_single_bank device arrays =
  let places = Hashtbl.create 16 in
  let blocks = ref 0 in
  let place (d : Decl.t) =
    blocks := !blocks + Device.blocks_for device ~bits:(Decl.size_bits d);
    Hashtbl.replace places d.Decl.name (Internal { bank = 0; blocks = 0 })
  in
  List.iter place arrays;
  {
    device;
    places;
    blocks_used = min !blocks device.Device.ram_blocks;
    ports_override = Some 1;
  }

let blocks_used t = t.blocks_used

let location t name =
  match Hashtbl.find_opt t.places name with
  | Some l -> l
  | None -> raise Not_found

let bank_of t name =
  match location t name with
  | Internal { bank; _ } -> bank
  | External -> -1

let ports_of_bank t bank =
  match t.ports_override with
  | Some p -> p
  | None -> if bank < 0 then 1 else t.device.Device.ram_ports

let is_mapped t name = Hashtbl.mem t.places name

let external_arrays t =
  Hashtbl.fold
    (fun name loc acc -> match loc with External -> name :: acc | Internal _ -> acc)
    t.places []
  |> List.sort String.compare

let conflict t n1 n2 =
  n1 <> n2 && is_mapped t n1 && is_mapped t n2 && bank_of t n1 = bank_of t n2

let pp ppf t =
  Format.fprintf ppf "@[<v>ram map (%d blocks used):@," t.blocks_used;
  let lines =
    Hashtbl.fold
      (fun name loc acc ->
        let text =
          match loc with
          | Internal { bank; blocks } ->
            Printf.sprintf "  %s -> bank %d (%d blocks)" name bank blocks
          | External -> Printf.sprintf "  %s -> external" name
        in
        text :: acc)
      t.places []
  in
  List.iter (Format.fprintf ppf "%s@,") (List.sort String.compare lines);
  Format.fprintf ppf "@]"

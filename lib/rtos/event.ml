type e = { mutable flags : int; mutable sends : int }

type Kobj.payload += Event of e

let create ~reg ~name = Kobj.register reg ~kind:"event" ~name (Event { flags = 0; sends = 0 })

let send e bits =
  e.flags <- e.flags lor (bits land 0xFFFFFFFF);
  e.sends <- e.sends + 1

let recv e ~mask ~all ~clear =
  let mask = mask land 0xFFFFFFFF in
  if mask = 0 then Error Kerr.einval
  else
    let matched = e.flags land mask in
    let satisfied = if all then matched = mask else matched <> 0 in
    if not satisfied then Error Kerr.eagain
    else begin
      if clear then e.flags <- e.flags land lnot matched;
      Ok matched
    end


let of_obj (obj : Kobj.obj) = match obj.Kobj.payload with Event e -> Some e | _ -> None

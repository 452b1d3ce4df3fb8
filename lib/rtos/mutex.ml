type m = { mutable owner : int option; mutable depth : int }

type Kobj.payload += Mutex of m

let create ~reg ~name = Kobj.register reg ~kind:"mutex" ~name (Mutex { owner = None; depth = 0 })

let lock m ~owner =
  match m.owner with
  | None ->
    m.owner <- Some owner;
    m.depth <- 1;
    Ok ()
  | Some o when o = owner ->
    m.depth <- m.depth + 1;
    Ok ()
  | Some _ -> Error Kerr.ebusy

let unlock m ~owner =
  match m.owner with
  | Some o when o = owner ->
    m.depth <- m.depth - 1;
    if m.depth <= 0 then begin
      m.owner <- None;
      m.depth <- 0
    end;
    Ok ()
  | _ -> Error Kerr.eperm

let of_obj (obj : Kobj.obj) = match obj.Kobj.payload with Mutex m -> Some m | _ -> None

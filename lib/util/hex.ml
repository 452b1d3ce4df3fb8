let of_nibble n =
  if n < 0 || n > 15 then invalid_arg "Hex.of_nibble";
  if n < 10 then Char.chr (Char.code '0' + n) else Char.chr (Char.code 'a' + n - 10)

let to_nibble = function
  | '0' .. '9' as c -> Some (Char.code c - Char.code '0')
  | 'a' .. 'f' as c -> Some (Char.code c - Char.code 'a' + 10)
  | 'A' .. 'F' as c -> Some (Char.code c - Char.code 'A' + 10)
  | _ -> None

let encode_bytes b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then invalid_arg "Hex.encode_bytes";
  let out = Bytes.create (2 * len) in
  for i = 0 to len - 1 do
    let c = Char.code (Bytes.get b (pos + i)) in
    Bytes.set out (2 * i) (of_nibble (c lsr 4));
    Bytes.set out ((2 * i) + 1) (of_nibble (c land 0xF))
  done;
  Bytes.unsafe_to_string out

let encode s = encode_bytes (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)

let decode s =
  let n = String.length s in
  if n mod 2 <> 0 then Error "odd-length hex string"
  else
    let out = Bytes.create (n / 2) in
    let rec go i =
      if i >= n then Ok (Bytes.unsafe_to_string out)
      else
        match (to_nibble s.[i], to_nibble s.[i + 1]) with
        | Some hi, Some lo ->
          Bytes.set out (i / 2) (Char.chr ((hi lsl 4) lor lo));
          go (i + 2)
        | _ -> Error (Printf.sprintf "non-hex digit at offset %d" i)
    in
    go 0

let ok = 0L

let einval = -22L

let enomem = -12L

let enoent = -2L

let etimedout = -110L

let ebusy = -16L

let eagain = -11L

let enospc = -28L

let eperm = -1L

let name code =
  if Int64.equal code ok then "OK"
  else if Int64.equal code einval then "EINVAL"
  else if Int64.equal code enomem then "ENOMEM"
  else if Int64.equal code enoent then "ENOENT"
  else if Int64.equal code etimedout then "ETIMEDOUT"
  else if Int64.equal code ebusy then "EBUSY"
  else if Int64.equal code eagain then "EAGAIN"
  else if Int64.equal code enospc then "ENOSPC"
  else if Int64.equal code eperm then "EPERM"
  else Printf.sprintf "ERR%Ld" code

let fit a len x =
  if Array.length a >= len then a
  else Array.make (max len (2 * Array.length a)) x

let reset a len x =
  let a = fit a len x in
  Array.fill a 0 len x;
  a

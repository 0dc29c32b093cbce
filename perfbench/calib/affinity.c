/* CPU affinity for the host-speed reference process. */
#define _GNU_SOURCE
#include <sched.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/memory.h>

/* Pin the calling thread to one CPU; true on success. */
value calib_pin(value cpu)
{
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(Int_val(cpu), &set);
  return Val_bool(sched_setaffinity(0, sizeof set, &set) == 0);
}

/* The CPUs the process may run on, as an OCaml int list. */
value calib_allowed(value unit)
{
  CAMLparam1(unit);
  CAMLlocal2(list, cell);
  cpu_set_t set;
  list = Val_emptylist;
  if (sched_getaffinity(0, sizeof set, &set) == 0)
    for (int cpu = CPU_SETSIZE - 1; cpu >= 0; cpu--)
      if (CPU_ISSET(cpu, &set)) {
        cell = caml_alloc(2, 0);
        Store_field(cell, 0, Val_int(cpu));
        Store_field(cell, 1, list);
        list = cell;
      }
  CAMLreturn(list);
}

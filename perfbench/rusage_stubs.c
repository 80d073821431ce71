/* wait4(2) for one child: its exit status and its own peak resident set
   size, which OCaml's Unix library does not expose. */

#include <errno.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>

/* Returns (code, maxrss_kb). [code] is the exit status, or -signal when
   the child was killed by a signal. */
value perfbench_wait4(value v_pid)
{
  CAMLparam1(v_pid);
  CAMLlocal1(res);
  pid_t pid = Int_val(v_pid), r;
  int status = 0, code;
  struct rusage ru;
  caml_enter_blocking_section();
  do {
    r = wait4(pid, &status, 0, &ru);
  } while (r < 0 && errno == EINTR);
  caml_leave_blocking_section();
  if (r < 0) caml_failwith("wait4");
  if (WIFEXITED(status)) code = WEXITSTATUS(status);
  else if (WIFSIGNALED(status)) code = -WTERMSIG(status);
  else code = -1;
  res = caml_alloc_tuple(2);
  Store_field(res, 0, Val_int(code));
  Store_field(res, 1, Val_long(ru.ru_maxrss));
  CAMLreturn(res);
}

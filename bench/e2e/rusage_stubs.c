/* Resource accounting for the benchmark's child processes.

   [e2e_wait4 pid] blocks until the child ends and returns
   (exit code, ru_maxrss in KiB, ru_utime in s, ru_stime in s); a child
   killed by signal N reports exit code 128 + N, as a shell would.
   [e2e_clk_tck ()] is the unit of the utime/stime fields of
   /proc/<pid>/stat, which the benchmark reads for the daemon. */

#define _GNU_SOURCE
#include <errno.h>
#include <string.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>

static double seconds(struct timeval tv)
{
  return (double)tv.tv_sec + (double)tv.tv_usec / 1e6;
}

value e2e_wait4(value vpid)
{
  CAMLparam1(vpid);
  CAMLlocal3(res, utime, stime);
  pid_t pid = Int_val(vpid);
  int status = 0, err = 0;
  struct rusage ru;
  pid_t r;

  memset(&ru, 0, sizeof ru);
  caml_enter_blocking_section();
  do {
    r = wait4(pid, &status, 0, &ru);
  } while (r < 0 && errno == EINTR);
  if (r < 0) err = errno;
  caml_leave_blocking_section();
  if (r < 0) caml_failwith(strerror(err));

  int code = 255;
  if (WIFEXITED(status)) code = WEXITSTATUS(status);
  else if (WIFSIGNALED(status)) code = 128 + WTERMSIG(status);

  utime = caml_copy_double(seconds(ru.ru_utime));
  stime = caml_copy_double(seconds(ru.ru_stime));
  res = caml_alloc_tuple(4);
  Store_field(res, 0, Val_int(code));
  Store_field(res, 1, Val_long(ru.ru_maxrss));
  Store_field(res, 2, utime);
  Store_field(res, 3, stime);
  CAMLreturn(res);
}

value e2e_clk_tck(value unit)
{
  (void)unit;
  return Val_long(sysconf(_SC_CLK_TCK));
}

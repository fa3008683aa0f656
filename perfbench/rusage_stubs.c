/* Resident-set high-water mark of the benchmark process. */
#include <sys/resource.h>
#include <caml/mlvalues.h>

value perfbench_maxrss_kb(value unit)
{
  struct rusage ru;
  (void)unit;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return Val_long(0);
  return Val_long(ru.ru_maxrss);
}

// Host evidence recorded beside every run, so a slow host can be told
// apart from a slow commit. None of it is gated.

#ifndef PERFBENCH_HARNESS_HOST_H_
#define PERFBENCH_HARNESS_HOST_H_

#include <cstdint>
#include <string>

namespace perfbench {

// Aggregate CPU jiffies from the first line of /proc/stat.
struct CpuTimes {
  bool ok = false;
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};

CpuTimes ReadCpuTimes();
// Parses one "cpu  user nice system idle iowait irq softirq steal ..." line.
CpuTimes ParseCpuLine(const std::string& line);

// Share of CPU time stolen by the hypervisor between two readings; 0 when
// either reading failed or no time passed.
double StealFraction(const CpuTimes& before, const CpuTimes& after);

// Wall time of one fixed calibration workload (an integer hash chain plus
// a pointer chase over a working set larger than L2), in milliseconds.
// The work never changes, so its time tracks the host alone.
double CalibrationMs();

// Peak resident set size of this process, in MiB.
double PeakRssMib();

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_HOST_H_

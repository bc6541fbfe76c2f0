// The repository benchmark: one workload per invocation, single-threaded.
//
//   perfbench --workload <mha_bound|capacity_bound|serve_openloop>
//             --seed <n> --seconds <s> --trace <0|1> [--size tiny]
//             [--workdir <dir>]
//
// Prints human-readable tables, every disclosed and unexpected violation,
// and as its last stdout line one JSON object: correct, attempted, failed
// and the metrics (end-to-end with --trace 0, per-layer with --trace 1).
// README.md documents the workloads and every metric.
#include <unistd.h>

#include <iomanip>
#include <iostream>
#include <string>

#include "bench.hpp"

using namespace perfbench;

namespace {

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <mha_bound|capacity_bound|"
               "serve_openloop> --seed <n> --seconds <s> --trace <0|1> "
               "[--size tiny] [--workdir <dir>]\n";
  return 2;
}

std::string self_exe() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n <= 0) throw std::runtime_error("cannot resolve /proc/self/exe");
  return std::string(buf, static_cast<std::size_t>(n));
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == "--serve-child") {
    return serve_child_main(argc, argv);
  }
  Options opt;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (i + 1 >= argc) return usage("missing value for " + a);
      const std::string v = argv[++i];
      if (a == "--workload") {
        opt.workload = v;
      } else if (a == "--seed") {
        opt.seed = std::stoull(v);
      } else if (a == "--seconds") {
        opt.seconds = std::stod(v);
      } else if (a == "--trace") {
        if (v != "0" && v != "1") return usage("--trace takes 0 or 1");
        opt.trace = v == "1";
      } else if (a == "--size") {
        if (v != "full" && v != "tiny") return usage("--size takes full|tiny");
        opt.tiny = v == "tiny";
      } else if (a == "--workdir") {
        opt.workdir = v;
      } else {
        return usage("unknown argument " + a);
      }
    }
  } catch (const std::exception&) {
    return usage("bad numeric argument");
  }

  Outcome out;
  if (opt.workload == "mha_bound" || opt.workload == "capacity_bound") {
    out = run_paper(opt, opt.workload == "capacity_bound");
  } else if (opt.workload == "serve_openloop") {
    out = run_serve(opt, self_exe());
  } else {
    return usage("unknown workload '" + opt.workload + "'");
  }

  for (const std::string& v : out.disclosed) {
    std::cout << "disclosed engine defect: " << v << "\n";
  }
  for (const std::string& v : out.unexpected) {
    std::cout << "VIOLATION: " << v << "\n";
  }
  std::cout << "attempted " << out.attempted << ", failed " << out.failed
            << " (" << out.disclosed.size()
            << " disclosed paged-preemption violations)\n";
  if (opt.trace) {
    const auto self = tracer().self_times();
    std::cout << "span self time (s, count):\n";
    for (const auto& [name, st] : self) {
      std::cout << "  " << std::left << std::setw(28) << name << std::right
                << std::setw(12) << st.first << std::setw(8) << st.second
                << "\n";
    }
    const std::string path = opt.workdir + "/spans-" + opt.workload + "-" +
                             std::to_string(opt.seed) + ".json";
    tracer().write(path);
    std::cout << "spans: " << tracer().spans().size() << " written to "
              << path << "\n";
  }
  std::cout << out.json() << std::endl;
  return 0;
}

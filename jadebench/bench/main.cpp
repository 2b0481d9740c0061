// jadebench: one benchmark over the Jade runtime's four faces.
//
//   jadebench --workload <fanout_thread|relax_sim|cholesky_cluster|churn_server>
//             --seed <n> --seconds <s> --trace <0|1> [--size tiny]
//             [--spans <path>] [--git-sha <sha>] [--source-digest <hex>]
//
// Prints a stamp line and, as the last line of stdout, the result object.
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones, and the recorded spans are written to --spans at exit.
// Exits 1 when any output differs from the serial reference, 2 on bad
// arguments.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr, "jadebench: %s\n", why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  jadebench::Options opt;
  opt.cores = jadebench::hardware_cores();
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::atof(value);
    } else if (flag == "--trace") {
      opt.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--size") {
      if (std::strcmp(value, "tiny") != 0 && std::strcmp(value, "full") != 0)
        return usage("--size is tiny or full");
      opt.tiny = std::strcmp(value, "tiny") == 0;
    } else if (flag == "--spans") {
      opt.spans_path = value;
    } else if (flag == "--git-sha") {
      opt.git_sha = value;
    } else if (flag == "--source-digest") {
      opt.source_digest = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (!(opt.seconds > 0)) return usage("--seconds must be positive");

  jadebench::Result r;
  try {
    if (opt.workload == "fanout_thread")
      r = jadebench::run_fanout_thread(opt);
    else if (opt.workload == "relax_sim")
      r = jadebench::run_relax_sim(opt);
    else if (opt.workload == "cholesky_cluster")
      r = jadebench::run_cholesky_cluster(opt);
    else if (opt.workload == "churn_server")
      r = jadebench::run_churn_server(opt);
    else
      return usage(("unknown workload '" + opt.workload + "'").c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "jadebench: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }
  if (opt.trace && !opt.spans_path.empty())
    jadebench::spans().write(opt.spans_path);
  jadebench::print_result(opt, r);
  return r.correct ? 0 : 1;
}

// perfbench_driver — runs one benchmark workload and prints its metrics.
//
//   perfbench_driver --workload repro_grid --seed 7 --seconds 10 --trace 0
//                    --reference perfbench/reference/repro_grid.full.txt
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}; `# ...` lines before it give sample counts and machine facts.
// Exit status: 0 on a correct run, 1 when a correctness check failed,
// 2 on a usage error. perfbench/run.py builds this binary and is the
// entry point users run; see perfbench/README.md.
#include <sched.h>
#include <unistd.h>

#include <cstdlib>
#include <iostream>
#include <string>

#include "common.hpp"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench_driver: " << why
            << "\nusage: perfbench_driver --workload "
               "repro_grid|dense_isrpt|dense_equi|serve_fleet --seed N "
               "--seconds S --trace 0|1 --reference FILE [--scale "
               "full|tiny] [--scratch DIR] [--write-reference]\n";
  std::exit(2);
}

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--write-reference") {
      opt.write_reference = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + a);
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        opt.workload = v;
      } else if (a == "--seed") {
        opt.seed = std::stoull(v);
      } else if (a == "--seconds") {
        opt.seconds = std::stod(v);
      } else if (a == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        opt.trace = v == "1";
      } else if (a == "--scale") {
        if (v != "full" && v != "tiny") usage("--scale takes full or tiny");
        opt.tiny = v == "tiny";
      } else if (a == "--reference") {
        opt.reference = v;
      } else if (a == "--scratch") {
        opt.scratch_dir = v;
      } else {
        usage("unknown option " + a);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + a + ": " + v);
    }
  }
  if (opt.workload.empty()) usage("--workload is required");
  if (!(opt.seconds > 0.0)) usage("--seconds must be positive");
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Options opt = parse(argc, argv);
  perfbench::Report report;
  report.note("workload", opt.workload);
  report.note("seed", std::to_string(opt.seed));
  report.note("scale", opt.tiny ? "tiny" : "full");
  report.note("trace", opt.trace ? "1" : "0");
  report.note("build_type", PERFBENCH_BUILD_TYPE);
  report.note("nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN)));
  try {
    int rc = 0;
    if (opt.workload == "repro_grid") {
      rc = perfbench::run_repro_grid(opt, report);
    } else if (opt.workload == "dense_isrpt") {
      rc = perfbench::run_dense(opt, "isrpt", report);
    } else if (opt.workload == "dense_equi") {
      rc = perfbench::run_dense(opt, "equi", report);
    } else if (opt.workload == "serve_fleet") {
      rc = perfbench::run_serve_fleet(opt, report);
    } else {
      usage("unknown workload " + opt.workload);
    }
    if (opt.write_reference) return rc;
  } catch (const perfbench::CheckFailure& e) {
    std::cerr << "perfbench: CHECK FAILED: " << e.what() << '\n';
    report.correct = false;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: run failed: " << e.what() << '\n';
    return 1;
  }
  report.note("cpu", std::to_string(sched_getcpu()));
  // Traced runs report per-layer metrics only; RSS is an end-to-end
  // figure, so there it is a note.
  if (opt.trace) {
    report.note("peak_rss_mb", perfbench::peak_rss_mb());
  } else {
    report.metric("peak_rss_mb", perfbench::peak_rss_mb(), "MB");
  }
  report.print();
  return report.correct ? 0 : 1;
}

#include "support/progress.hh"

namespace rodinia {
namespace support {

ProgressReporter::ProgressReporter(size_t total, std::FILE *out,
                                   bool verbose)
    : total(total), out(out), verbose(verbose)
{
}

void
ProgressReporter::jobStarted(const std::string &name)
{
    if (!verbose)
        return;
    std::lock_guard<std::mutex> lock(mu);
    std::fprintf(out, "[%3zu/%zu] start  %s\n", done + 1, total,
                 name.c_str());
    std::fflush(out);
}

void
ProgressReporter::jobFinished(const std::string &name, double wallMs)
{
    std::lock_guard<std::mutex> lock(mu);
    ++done;
    if (verbose) {
        std::fprintf(out, "[%3zu/%zu] done   %s (%.1f ms)\n", done,
                     total, name.c_str(), wallMs);
        std::fflush(out);
    }
}

void
ProgressReporter::jobFailed(const std::string &name,
                            const std::string &error, bool skipped)
{
    std::lock_guard<std::mutex> lock(mu);
    ++done;
    std::fprintf(out, "[%3zu/%zu] %s %s%s%s\n", done, total,
                 skipped ? "skip  " : "FAIL  ", name.c_str(),
                 error.empty() ? "" : ": ", error.c_str());
    std::fflush(out);
}

} // namespace support
} // namespace rodinia

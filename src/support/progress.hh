/**
 * @file
 * Thread-safe progress reporting for long-running experiment sweeps.
 *
 * The driver's executor calls into a ProgressReporter from its pool
 * threads as jobs start and finish; the reporter serializes output
 * with an internal mutex so lines never interleave. Reporting is
 * line-oriented (one line per event) so it stays readable when
 * stderr is redirected to a file.
 */

#ifndef RODINIA_SUPPORT_PROGRESS_HH
#define RODINIA_SUPPORT_PROGRESS_HH

#include <cstdio>
#include <mutex>
#include <string>

namespace rodinia {
namespace support {

/** Sink for job lifecycle events. All methods are thread-safe. */
class ProgressReporter
{
  public:
    virtual ~ProgressReporter() = default;

    /** A job began executing. */
    virtual void jobStarted(const std::string &name) = 0;

    /** A job finished successfully. */
    virtual void jobFinished(const std::string &name, double wallMs) = 0;

    /** A job failed (threw) or was skipped due to a failed dep. */
    virtual void jobFailed(const std::string &name,
                           const std::string &error, bool skipped) = 0;
};

/**
 * Prints one line per event to a stdio stream with a done/total
 * counter. Construct with the total job count; the counter advances
 * on every finish/failure.
 */
class StreamProgressReporter : public ProgressReporter
{
  public:
    explicit StreamProgressReporter(size_t total, std::FILE *out = stderr,
                                    bool verbose = true);

    void jobStarted(const std::string &name) override;
    void jobFinished(const std::string &name, double wallMs) override;
    void jobFailed(const std::string &name, const std::string &error,
                   bool skipped) override;

  private:
    std::mutex mu;
    size_t total;
    size_t done = 0;
    std::FILE *out;
    bool verbose; //!< false: report failures only
};

} // namespace support
} // namespace rodinia

#endif // RODINIA_SUPPORT_PROGRESS_HH

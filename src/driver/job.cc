#include "driver/job.hh"

#include "support/logging.hh"

namespace rodinia {
namespace driver {

const char *
jobStatusName(JobStatus status)
{
    switch (status) {
      case JobStatus::Pending:
        return "pending";
      case JobStatus::Running:
        return "running";
      case JobStatus::Done:
        return "done";
      case JobStatus::Failed:
        return "failed";
      case JobStatus::Skipped:
        return "skipped";
    }
    return "unknown";
}

const char *
errorClassName(ErrorClass cls)
{
    switch (cls) {
      case ErrorClass::None:
        return "none";
      case ErrorClass::Injected:
        return "injected";
      case ErrorClass::StoreIo:
        return "store-io";
      case ErrorClass::Deadline:
        return "deadline";
      case ErrorClass::Oom:
        return "oom";
      case ErrorClass::Workload:
        return "workload";
      case ErrorClass::Skipped:
        return "skipped";
      case ErrorClass::Unknown:
        return "unknown";
    }
    return "unknown";
}

size_t
JobGraph::add(std::string name, std::function<void()> work,
              std::vector<size_t> deps)
{
    size_t id = jobs_.size();
    for (size_t dep : deps) {
        if (dep >= id)
            fatal("JobGraph: job '", name, "' depends on job ", dep,
                  " which has not been added yet (have ", id, " jobs)");
    }
    Job j;
    j.name = std::move(name);
    j.work = std::move(work);
    j.deps = std::move(deps);
    jobs_.push_back(std::move(j));
    return id;
}

bool
JobGraph::allDone() const
{
    for (const auto &j : jobs_)
        if (j.status != JobStatus::Done)
            return false;
    return true;
}

double
JobGraph::totalWorkMs() const
{
    double total = 0.0;
    for (const auto &j : jobs_)
        total += j.wallMs;
    return total;
}

} // namespace driver
} // namespace rodinia

#include "stats/plackett_burman.hh"

#include <algorithm>
#include <cmath>

#include "support/logging.hh"

namespace rodinia {
namespace stats {

namespace {

/** First rows of the standard cyclic PB constructions. */
const char *
firstRow(int runs)
{
    switch (runs) {
      case 8:
        return "+++-+--";
      case 12:
        return "++-+++---+-";
      case 16:
        return "++++-+-++--+---";
      case 20:
        return "++--++++-+-+----++-";
      case 24:
        return "+++++-+-++--++--+-+----";
      default:
        return nullptr;
    }
}

} // namespace

PbDesign
pbDesign(int factors)
{
    if (factors < 1)
        fatal("pbDesign: need at least one factor");

    int runs = 0;
    for (int r : {8, 12, 16, 20, 24}) {
        if (factors <= r - 1) {
            runs = r;
            break;
        }
    }
    if (runs == 0)
        fatal("pbDesign: at most 23 factors supported, got ", factors);

    const char *row = firstRow(runs);
    const int cols = runs - 1;

    PbDesign d;
    d.runs = runs;
    d.factors = factors;
    d.signs.assign(runs, std::vector<int>(factors, -1));

    // Cyclic construction: row r is the first row rotated right r
    // times; the final run is all -1.
    for (int r = 0; r < runs - 1; ++r) {
        for (int f = 0; f < factors; ++f) {
            int idx = (f - r) % cols;
            if (idx < 0)
                idx += cols;
            d.signs[r][f] = row[idx] == '+' ? 1 : -1;
        }
    }
    return d;
}

std::vector<PbEffect>
pbEffects(const PbDesign &design, const std::vector<double> &responses,
          const std::vector<std::string> &names)
{
    if (int(responses.size()) != design.runs)
        fatal("pbEffects: expected ", design.runs, " responses, got ",
              responses.size());

    std::vector<PbEffect> out;
    for (int f = 0; f < design.factors; ++f) {
        double acc = 0.0;
        for (int r = 0; r < design.runs; ++r)
            acc += design.signs[r][f] * responses[r];
        double effect = acc / (design.runs / 2.0);
        PbEffect e;
        e.factor = f;
        e.name = f < int(names.size())
                     ? names[f]
                     : std::string("f").append(std::to_string(f));
        e.effect = effect;
        e.magnitude = std::fabs(effect);
        out.push_back(e);
    }
    std::sort(out.begin(), out.end(), [](const PbEffect &a,
                                         const PbEffect &b) {
        return a.magnitude > b.magnitude;
    });
    return out;
}

} // namespace stats
} // namespace rodinia

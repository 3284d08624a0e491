#include "src/sim/stats.hh"

#include <cmath>
#include <sstream>

namespace conduit
{

double
nearestRankOf(std::vector<double> samples, double p)
{
    if (samples.empty())
        return 0.0;
    const double n = static_cast<double>(samples.size());
    const double rank = std::ceil(p / 100.0 * n);
    std::size_t idx = samples.size() - 1;
    if (rank <= 1.0)
        idx = 0;
    else if (rank < n)
        idx = static_cast<std::size_t>(rank) - 1;
    std::nth_element(samples.begin(), samples.begin() + idx,
                     samples.end());
    return samples[idx];
}

std::size_t
StatSet::slotOf(const std::string &name)
{
    const auto [it, inserted] = index_.emplace(name, slots_.size());
    if (inserted)
        slots_.emplace_back();
    return it->second;
}

std::map<std::string, Counter>
StatSet::counters() const
{
    std::map<std::string, Counter> out;
    for (const auto &[name, slot] : index_)
        out.emplace_hint(out.end(), name, slots_[slot]);
    return out;
}

bool
StatSet::extends(const StatSet &base) const
{
    for (const auto &[name, slot] : base.index_) {
        const auto it = index_.find(name);
        if (it == index_.end() || it->second != slot)
            return false;
    }
    return true;
}

std::string
StatSet::dump() const
{
    std::ostringstream os;
    for (const auto &[name, slot] : index_)
        os << name << " " << slots_[slot].value() << "\n";
    return os.str();
}

} // namespace conduit

#include "arch/microarch_config.hh"

#include <cmath>
#include <sstream>

#include "base/check.hh"
#include "base/logging.hh"

namespace acdse
{

MicroarchConfig::MicroarchConfig()
{
    for (std::size_t i = 0; i < kNumParams; ++i)
        values_[i] = paramSpecs()[i].baseline;
}

MicroarchConfig::MicroarchConfig(const std::array<int, kNumParams> &values)
    : values_(values)
{
    for (std::size_t i = 0; i < kNumParams; ++i) {
        ACDSE_CHECK(paramSpecs()[i].contains(values_[i]),
                     "illegal value ", values_[i], " for parameter ",
                     paramSpecs()[i].name);
    }
}

void
MicroarchConfig::set(Param p, int value)
{
    ACDSE_CHECK(paramSpec(p).contains(value), "illegal value ", value,
                 " for parameter ", paramSpec(p).name);
    values_[static_cast<std::size_t>(p)] = value;
}

std::vector<double>
MicroarchConfig::asVector() const
{
    std::vector<double> v(kNumParams);
    for (std::size_t i = 0; i < kNumParams; ++i)
        v[i] = static_cast<double>(values_[i]);
    return v;
}

std::vector<double>
MicroarchConfig::asFeatureVector() const
{
    std::vector<double> v(kNumParams);
    featuresInto(v.data());
    return v;
}

void
MicroarchConfig::featuresInto(double *out) const
{
    for (std::size_t i = 0; i < kNumParams; ++i)
        out[i] = static_cast<double>(values_[i]);
    for (Param p : {Param::BpredSize, Param::BtbSize, Param::Il1Size,
                    Param::Dl1Size, Param::L2Size}) {
        out[static_cast<std::size_t>(p)] =
            std::log2(out[static_cast<std::size_t>(p)]);
    }
}

std::string
MicroarchConfig::key() const
{
    std::ostringstream os;
    for (std::size_t i = 0; i < kNumParams; ++i) {
        if (i)
            os << '/';
        os << values_[i];
    }
    return os.str();
}

std::uint64_t
MicroarchConfig::hash() const
{
    // FNV-1a over the value indices.
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::size_t i = 0; i < kNumParams; ++i) {
        h ^= static_cast<std::uint64_t>(values_[i]);
        h *= 0x100000001b3ULL;
    }
    return h;
}

} // namespace acdse

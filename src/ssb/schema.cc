#include "ssb/schema.h"

#include <array>
#include <cstdio>

namespace hef::ssb {

namespace {

constexpr std::array<const char*, kNumRegions> kRegionNames = {
    "AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"};

// 25 nations, five per region, in region-major order. Slot 4 of AMERICA is
// UNITED STATES (code 9) and slot 4 of EUROPE is UNITED KINGDOM (code 19),
// which the Q3.x query definitions rely on.
constexpr std::array<const char*, kNumNations> kNationNames = {
    // AFRICA
    "ALGERIA", "ETHIOPIA", "KENYA", "MOROCCO", "MOZAMBIQUE",
    // AMERICA
    "ARGENTINA", "BRAZIL", "CANADA", "PERU", "UNITED STATES",
    // ASIA
    "INDIA", "INDONESIA", "JAPAN", "CHINA", "VIETNAM",
    // EUROPE
    "FRANCE", "GERMANY", "ROMANIA", "RUSSIA", "UNITED KINGDOM",
    // MIDDLE EAST
    "EGYPT", "IRAN", "IRAQ", "JORDAN", "SAUDI ARABIA"};

// Nation name truncated or space-padded to exactly nine characters, as the
// SSB dbgen does for city prefixes.
std::string NationPrefix9(std::uint64_t nation) {
  std::string s = kNationNames[nation];
  s.resize(9, ' ');
  return s;
}

}  // namespace

const char* RegionName(std::uint64_t region) {
  return region < kNumRegions ? kRegionNames[region] : "UNKNOWN";
}

std::string NationName(std::uint64_t nation) {
  return nation < kNumNations ? kNationNames[nation] : "UNKNOWN";
}

std::string CityName(std::uint64_t city) {
  if (city >= kNumCities) return "UNKNOWN";
  return NationPrefix9(NationOfCity(city)) +
         static_cast<char>('0' + city % 10);
}

// Buffers fit "MFGR#" plus a full-width 64-bit value (20 digits).
std::string MfgrName(std::uint64_t mfgr) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "MFGR#%llu",
                static_cast<unsigned long long>(mfgr));
  return buf;
}

std::string CategoryName(std::uint64_t category) {
  return MfgrName(category);
}

std::string BrandName(std::uint64_t brand) {
  // brand = m*1000 + c*100 + b with b in 1..40 -> "MFGR#mcbb".
  char buf[32];
  std::snprintf(buf, sizeof(buf), "MFGR#%llu%02llu",
                static_cast<unsigned long long>(brand / 100),
                static_cast<unsigned long long>(brand % 100));
  return buf;
}

Result<std::uint64_t> RegionCode(const std::string& name) {
  for (std::uint64_t i = 0; i < kNumRegions; ++i) {
    if (name == kRegionNames[i]) return i;
  }
  return Status::InvalidArgument("unknown region '" + name + "'");
}

Result<std::uint64_t> NationCode(const std::string& name) {
  for (std::uint64_t i = 0; i < kNumNations; ++i) {
    if (name == kNationNames[i]) return i;
  }
  return Status::InvalidArgument("unknown nation '" + name + "'");
}

Result<std::uint64_t> CityCode(const std::string& name) {
  if (name.size() != 10) {
    return Status::InvalidArgument("city names are 10 characters: '" + name +
                                   "'");
  }
  for (std::uint64_t nation = 0; nation < kNumNations; ++nation) {
    if (name.compare(0, 9, NationPrefix9(nation)) == 0 &&
        name[9] >= '0' && name[9] <= '9') {
      return nation * 10 + static_cast<std::uint64_t>(name[9] - '0');
    }
  }
  return Status::InvalidArgument("unknown city '" + name + "'");
}

Result<std::uint64_t> MfgrSeriesCode(const std::string& name) {
  unsigned long long code = 0;
  int consumed = 0;
  if (std::sscanf(name.c_str(), "MFGR#%llu%n", &code, &consumed) != 1 ||
      consumed != static_cast<int>(name.size())) {
    return Status::InvalidArgument("malformed MFGR name '" + name + "'");
  }
  return static_cast<std::uint64_t>(code);
}

}  // namespace hef::ssb

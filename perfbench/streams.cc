#include "streams.h"

#include <algorithm>
#include <utility>

#include "common/strings.h"

namespace perfbench {

using mddc::StrCat;
using mddc::stress::QueryClass;

namespace {

// Distinct streams must not share an RNG sequence: each consumer mixes
// the seed with its own constant.
constexpr std::uint32_t kDeckSalt = 0x9e3779b9u;
constexpr std::uint32_t kRetailSalt = 0x85ebca6bu;
constexpr std::uint32_t kIngestSalt = 0xc2b2ae35u;

/// The retail dashboard's group-by templates: every function and every
/// dimension of the retail MO appears, with fixed (function, level)
/// pairings so a round's cost does not depend on the draw.
constexpr const char* kRetailGroupBys[] = {
    "SELECT COUNT FROM {} BY Product.Category",
    "SELECT SUM(Amount) FROM {} BY Store.City",
    "SELECT AVG(Price) FROM {} BY Date.Month",
    "SELECT MAX(Price) FROM {} BY Product.Department, Store.Region",
    "SELECT MIN(Price) FROM {} BY Date.Year, Product.Category",
    "SELECT COUNT, SUM(Amount) FROM {} BY Store.Store",
    "SELECT AVG(Amount) FROM {} BY Product.Product",
    "SELECT MAX(Amount), MIN(Amount) FROM {} BY Store.Region, Date.Year",
};
// Few filter values keep the distinct statements over all seeds, and the
// untimed interpreter check, small. The retail generator names its
// stores Store-0, Store-1, ...
constexpr std::size_t kFilteredStores = 4;
constexpr int kPriceThresholds[] = {150, 350};

std::string WithMo(const char* pattern, const std::string& mo) {
  std::string text(pattern);
  text.replace(text.find("{}"), 2, mo);
  return text;
}

}  // namespace

OlapStream::OlapStream(const mddc::stress::WorkloadProfile& profile,
                       std::uint32_t seed)
    : generator_(profile, seed, /*session=*/0), deck_rng_(seed ^ kDeckSalt) {
  const mddc::stress::MixSpec mix;  // the default weights
  for (std::size_t c = 0; c < 4; ++c) {  // the read classes
    for (std::uint32_t w = 0; w < mix.weights[c]; ++w) {
      deck_.push_back(static_cast<QueryClass>(c));
    }
  }
  next_ = deck_.size();
}

std::vector<std::string> OlapStream::Next() {
  if (next_ == deck_.size()) {
    std::shuffle(deck_.begin(), deck_.end(), deck_rng_);
    next_ = 0;
  }
  return generator_.Generate(deck_[next_++]);
}

std::vector<std::vector<std::string>> OlapRounds(
    const mddc::stress::WorkloadProfile& profile, std::uint32_t seed,
    std::size_t rounds) {
  OlapStream stream(profile, seed);
  std::vector<std::vector<std::string>> out(rounds);
  for (std::vector<std::string>& round : out) {
    for (std::size_t op = 0; op < stream.deck_size(); ++op) {
      for (std::string& statement : stream.Next()) {
        round.push_back(std::move(statement));
      }
    }
  }
  return out;
}

std::vector<std::string> RetailRound(const std::string& mo_name,
                                     std::uint32_t seed,
                                     std::size_t connection) {
  std::mt19937 rng(seed ^ kRetailSalt ^
                   (static_cast<std::uint32_t>(connection) * 2654435761u));
  auto pick = [&rng](std::size_t bound) {
    return std::uniform_int_distribution<std::size_t>(0, bound - 1)(rng);
  };
  std::vector<std::string> round;
  for (const char* pattern : kRetailGroupBys) {
    round.push_back(WithMo(pattern, mo_name));
  }
  round.push_back(StrCat("SELECT SUM(Amount) FROM ", mo_name,
                         " BY Product.Product WHERE Store.Store = 'Store-",
                         pick(kFilteredStores), "'"));
  round.push_back(StrCat("SELECT AVG(Amount) FROM ", mo_name,
                         " BY Store.Store WHERE Price >= ",
                         kPriceThresholds[pick(std::size(kPriceThresholds))]));
  std::shuffle(round.begin(), round.end(), rng);
  return round;
}

std::vector<std::string> IngestReads(const std::string& mo_name) {
  return {StrCat("SELECT COUNT FROM ", mo_name, " BY Residence.Region"),
          StrCat("SELECT COUNT FROM ", mo_name, " BY Residence.County"),
          StrCat("SELECT COUNT FROM ", mo_name, " BY Residence.Area")};
}

std::vector<IngestCycle> IngestSchedule(
    const mddc::stress::WorkloadProfile& profile, std::uint32_t seed,
    std::size_t cycles, std::size_t batch) {
  std::mt19937 rng(seed ^ kIngestSalt);
  auto pick = [&rng](std::size_t bound) {
    return std::uniform_int_distribution<std::size_t>(0, bound - 1)(rng);
  };
  const std::vector<std::string> reads = IngestReads(profile.mo_name);
  std::vector<IngestCycle> schedule;
  schedule.reserve(cycles);
  std::uint64_t key = profile.insert_key_base;
  for (std::size_t c = 0; c < cycles; ++c) {
    std::string insert = StrCat("INSERT INTO ", profile.mo_name);
    for (std::size_t b = 0; b < batch; ++b) {
      std::string assignment = StrCat(
          "Diagnosis.\"Low-level Diagnosis\" = 'L", pick(profile.lows), "'");
      if (pick(2) == 1) assignment += " PROB 0.8";
      insert += StrCat(b == 0 ? " " : ", ", "FACT ", key++, " (", assignment,
                       ", Residence.Area = 'A", pick(profile.areas), "')");
    }
    schedule.push_back(IngestCycle{std::move(insert), reads[c % reads.size()]});
  }
  return schedule;
}

}  // namespace perfbench

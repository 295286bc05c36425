#include "gwas/plink_io.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <limits>
#include <sstream>
#include <vector>

#include "common/status.hpp"

namespace kgwas {

void write_raw(std::ostream& os, const GenotypeMatrix& genotypes) {
  os << "FID IID";
  for (std::size_t s = 0; s < genotypes.snps(); ++s) os << " snp" << s;
  os << '\n';
  for (std::size_t p = 0; p < genotypes.patients(); ++p) {
    os << "F" << p << " I" << p;
    for (std::size_t s = 0; s < genotypes.snps(); ++s) {
      os << ' ' << static_cast<int>(genotypes(p, s));
    }
    os << '\n';
  }
}

namespace {

/// Leading (non-SNP) column count of a .raw header.  Real PLINK 1.9/2.0
/// `--recode A` exports carry six leading columns (FID IID PAT MAT SEX
/// PHENOTYPE); our compact write_raw form carries two (FID IID).  The
/// match tolerates case and a '#' prefix on the first token ("#FID",
/// how several downstream tools re-emit PLINK headers) — a 6-column
/// header mistaken for the 2-column form would silently ingest
/// PAT/MAT/SEX/PHENOTYPE as four extra SNPs.
std::size_t raw_leading_columns(const std::vector<std::string>& header) {
  static const char* kPlinkLead[] = {"FID", "IID", "PAT",
                                     "MAT", "SEX", "PHENOTYPE"};
  auto matches = [&](std::size_t i) {
    std::string token = header[i];
    if (i == 0 && !token.empty() && token.front() == '#') token.erase(0, 1);
    for (char& c : token) {
      c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    }
    return token == kPlinkLead[i];
  };
  if (header.size() >= 6) {
    bool full = true;
    for (std::size_t i = 0; i < 6; ++i) {
      if (!matches(i)) {
        full = false;
        break;
      }
    }
    if (full) return 6;
  }
  return 2;
}

std::vector<std::string> split_tokens(const std::string& line) {
  std::istringstream ss(line);
  std::vector<std::string> tokens;
  std::string token;
  while (ss >> token) tokens.push_back(std::move(token));
  return tokens;
}

}  // namespace

GenotypeMatrix read_raw(std::istream& is) {
  std::string header;
  KGWAS_CHECK_ARG(static_cast<bool>(std::getline(is, header)),
                  "raw file: missing header");
  const std::vector<std::string> header_tokens = split_tokens(header);
  const std::size_t lead = raw_leading_columns(header_tokens);
  KGWAS_CHECK_ARG(header_tokens.size() >= lead, "raw file: malformed header");
  const std::size_t n_snps = header_tokens.size() - lead;
  KGWAS_CHECK_ARG(n_snps > 0, "raw file: no SNP columns in header");

  // Missing dosages ("NA", PLINK's missing marker) are imputed to the
  // per-SNP mean of the observed dosages, rounded to the nearest valid
  // dosage — kMissing marks them until every row is read.
  constexpr int kMissing = -1;
  std::vector<std::vector<int>> rows;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    const std::vector<std::string> tokens = split_tokens(line);
    KGWAS_CHECK_ARG(tokens.size() == lead + n_snps,
                    "raw file: row width mismatch");
    std::vector<int> dosages;
    dosages.reserve(n_snps);
    for (std::size_t s = 0; s < n_snps; ++s) {
      const std::string& t = tokens[lead + s];
      if (t == "NA" || t == "na") {
        dosages.push_back(kMissing);
        continue;
      }
      std::size_t consumed = 0;
      int value = 0;
      try {
        value = std::stoi(t, &consumed);
      } catch (const std::exception&) {
        consumed = 0;
      }
      KGWAS_CHECK_ARG(consumed == t.size() && value >= 0 && value <= 2,
                      "raw file: dosage must be 0, 1, 2 or NA");
      dosages.push_back(value);
    }
    rows.push_back(std::move(dosages));
  }

  // Per-SNP mean of observed dosages (an all-missing SNP imputes to 0).
  std::vector<double> sums(n_snps, 0.0);
  std::vector<std::size_t> counts(n_snps, 0);
  for (const auto& row : rows) {
    for (std::size_t s = 0; s < n_snps; ++s) {
      if (row[s] != kMissing) {
        sums[s] += row[s];
        ++counts[s];
      }
    }
  }
  std::vector<int> imputed(n_snps, 0);
  for (std::size_t s = 0; s < n_snps; ++s) {
    if (counts[s] > 0) {
      const long mean = std::lround(sums[s] / static_cast<double>(counts[s]));
      imputed[s] = static_cast<int>(std::clamp<long>(mean, 0, 2));
    }
  }

  GenotypeMatrix genotypes(rows.size(), n_snps);
  for (std::size_t p = 0; p < rows.size(); ++p) {
    for (std::size_t s = 0; s < n_snps; ++s) {
      const int dosage = rows[p][s] == kMissing ? imputed[s] : rows[p][s];
      genotypes(p, s) = static_cast<std::int8_t>(dosage);
    }
  }
  return genotypes;
}

void write_pheno(std::ostream& os, const Matrix<float>& phenotypes,
                 const std::vector<std::string>& names) {
  KGWAS_CHECK_ARG(names.size() == phenotypes.cols(),
                  "phenotype name count mismatch");
  os << "FID IID";
  for (const auto& name : names) {
    std::string safe = name;
    for (char& c : safe) {
      if (c == ' ') c = '_';
    }
    os << ' ' << safe;
  }
  os << '\n';
  for (std::size_t p = 0; p < phenotypes.rows(); ++p) {
    os << "F" << p << " I" << p;
    for (std::size_t c = 0; c < phenotypes.cols(); ++c) {
      os << ' ' << phenotypes(p, c);
    }
    os << '\n';
  }
}

Matrix<float> read_pheno(std::istream& is, std::vector<std::string>& names) {
  std::string header;
  KGWAS_CHECK_ARG(static_cast<bool>(std::getline(is, header)),
                  "pheno file: missing header");
  const std::vector<std::string> header_tokens = split_tokens(header);
  KGWAS_CHECK_ARG(header_tokens.size() >= 2, "pheno file: malformed header");
  names.assign(header_tokens.begin() + 2, header_tokens.end());

  // "NA" phenotype entries (PLINK's missing marker) impute to the
  // per-phenotype mean of the observed values.
  constexpr float kMissing = std::numeric_limits<float>::quiet_NaN();
  std::vector<std::vector<float>> rows;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    const std::vector<std::string> tokens = split_tokens(line);
    KGWAS_CHECK_ARG(tokens.size() == 2 + names.size(),
                    "pheno file: row width mismatch");
    std::vector<float> values;
    values.reserve(names.size());
    for (std::size_t c = 0; c < names.size(); ++c) {
      const std::string& t = tokens[2 + c];
      if (t == "NA" || t == "na") {
        values.push_back(kMissing);
        continue;
      }
      std::size_t consumed = 0;
      float value = 0.0f;
      try {
        value = std::stof(t, &consumed);
      } catch (const std::exception&) {
        consumed = 0;
      }
      KGWAS_CHECK_ARG(consumed == t.size(),
                      "pheno file: phenotype must be numeric or NA");
      // PLINK 1.9's default missing sentinel is numeric -9; match by
      // value so "-9", "-9.0" and "-9.00" (R/pandas round trips) are
      // all treated as missing rather than contaminating the mean.
      values.push_back(value == -9.0f ? kMissing : value);
    }
    rows.push_back(std::move(values));
  }

  std::vector<double> sums(names.size(), 0.0);
  std::vector<std::size_t> counts(names.size(), 0);
  for (const auto& row : rows) {
    for (std::size_t c = 0; c < names.size(); ++c) {
      if (!std::isnan(row[c])) {
        sums[c] += row[c];
        ++counts[c];
      }
    }
  }
  Matrix<float> phenotypes(rows.size(), names.size());
  for (std::size_t p = 0; p < rows.size(); ++p) {
    for (std::size_t c = 0; c < names.size(); ++c) {
      const float v = rows[p][c];
      phenotypes(p, c) =
          std::isnan(v)
              ? (counts[c] > 0 ? static_cast<float>(
                                     sums[c] / static_cast<double>(counts[c]))
                               : 0.0f)
              : v;
    }
  }
  return phenotypes;
}

}  // namespace kgwas

// Minimal PLINK-style text IO so cohorts can be exported to / imported
// from other GWAS tooling.  Formats:
//   *.raw  — one row per patient with space-separated 0/1/2 dosages.
//            Both header shapes of PLINK `--recode A` are accepted and
//            auto-detected: the full 1.9/2.0 export ("FID IID PAT MAT
//            SEX PHENOTYPE <snp ids...>") and the compact two-column
//            form write_raw emits ("FID IID <snp ids...>").  "NA"
//            dosages (PLINK's missing marker) impute to the per-SNP
//            mean observed dosage, rounded to the nearest valid dosage;
//            files with zero SNP columns are rejected.
//   *.pheno — header "FID IID <phenotype names...>", one row per
//            patient; "NA" and PLINK 1.9's default -9 missing sentinel
//            impute to the per-phenotype mean.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "gwas/genotype.hpp"

namespace kgwas {

void write_raw(std::ostream& os, const GenotypeMatrix& genotypes);
GenotypeMatrix read_raw(std::istream& is);

void write_pheno(std::ostream& os, const Matrix<float>& phenotypes,
                 const std::vector<std::string>& names);
/// Returns phenotypes and fills `names`.
Matrix<float> read_pheno(std::istream& is, std::vector<std::string>& names);

}  // namespace kgwas

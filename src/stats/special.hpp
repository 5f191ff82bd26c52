// Special functions underpinning the statistical tests.
//
// Implemented from scratch (Lanczos/continued fractions) so p-values are
// identical across platforms and no external math library is needed beyond
// <cmath>. Accuracy targets ~1e-10 relative, far tighter than any survey
// analysis requires; unit tests pin values against published tables.
#pragma once

namespace rcr::stats {

// log Γ(x) for x > 0 (Lanczos approximation, g=7, n=9).
double log_gamma(double x);

// Regularized lower incomplete gamma P(a, x) = γ(a,x)/Γ(a), a > 0, x >= 0.
double gamma_p(double a, double x);

// Regularized upper incomplete gamma Q(a, x) = 1 - P(a, x).
double gamma_q(double a, double x);

// Regularized incomplete beta I_x(a, b), a,b > 0, x in [0,1].
double beta_inc(double a, double b, double x);

// Standard normal CDF and survival function.
double normal_cdf(double z);
double normal_sf(double z);

// Inverse standard normal CDF (Acklam's rational approximation, refined by
// one Halley step); |p| in (0,1).
double normal_quantile(double p);

// Survival function of the chi-squared distribution with k d.o.f.
double chi2_sf(double x, double k);

// log(n choose k) via log_gamma; exact enough for McNemar's exact branch.
double log_choose(double n, double k);

}  // namespace rcr::stats

#include "stats/special.hpp"

#include <cmath>
#include <limits>

#include "util/error.hpp"

namespace rcr::stats {

namespace {

constexpr double kEps = 1e-15;
constexpr int kMaxIter = 500;

// Continued-fraction evaluation of Q(a,x) (Numerical Recipes "gcf").
double gamma_q_cf(double a, double x) {
  double b = x + 1.0 - a;
  double c = 1.0 / 1e-300;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i <= kMaxIter; ++i) {
    const double an = -i * (i - a);
    b += 2.0;
    d = an * d + b;
    if (std::fabs(d) < 1e-300) d = 1e-300;
    c = b + an / c;
    if (std::fabs(c) < 1e-300) c = 1e-300;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) <= kEps) break;
  }
  return std::exp(-x + a * std::log(x) - log_gamma(a)) * h;
}

// Series evaluation of P(a,x) (Numerical Recipes "gser").
double gamma_p_series(double a, double x) {
  double ap = a;
  double sum = 1.0 / a;
  double del = sum;
  for (int i = 0; i < kMaxIter; ++i) {
    ap += 1.0;
    del *= x / ap;
    sum += del;
    if (std::fabs(del) < std::fabs(sum) * kEps) break;
  }
  return sum * std::exp(-x + a * std::log(x) - log_gamma(a));
}

// Continued fraction for the incomplete beta (Lentz's algorithm).
double beta_cf(double a, double b, double x) {
  const double qab = a + b;
  const double qap = a + 1.0;
  const double qam = a - 1.0;
  double c = 1.0;
  double d = 1.0 - qab * x / qap;
  if (std::fabs(d) < 1e-300) d = 1e-300;
  d = 1.0 / d;
  double h = d;
  for (int m = 1; m <= kMaxIter; ++m) {
    const int m2 = 2 * m;
    double aa = m * (b - m) * x / ((qam + m2) * (a + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < 1e-300) d = 1e-300;
    c = 1.0 + aa / c;
    if (std::fabs(c) < 1e-300) c = 1e-300;
    d = 1.0 / d;
    h *= d * c;
    aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < 1e-300) d = 1e-300;
    c = 1.0 + aa / c;
    if (std::fabs(c) < 1e-300) c = 1e-300;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) <= kEps) break;
  }
  return h;
}

}  // namespace

double log_gamma(double x) {
  RCR_CHECK_MSG(x > 0.0, "log_gamma requires x > 0");
  // Lanczos, g = 7, 9 coefficients (Godfrey's set).
  static const double kCoef[9] = {
      0.99999999999980993,  676.5203681218851,   -1259.1392167224028,
      771.32342877765313,   -176.61502916214059, 12.507343278686905,
      -0.13857109526572012, 9.9843695780195716e-6, 1.5056327351493116e-7};
  if (x < 0.5) {
    // Reflection formula keeps accuracy for small x.
    return std::log(M_PI / std::sin(M_PI * x)) - log_gamma(1.0 - x);
  }
  x -= 1.0;
  double a = kCoef[0];
  const double t = x + 7.5;
  for (int i = 1; i < 9; ++i) a += kCoef[i] / (x + i);
  return 0.5 * std::log(2.0 * M_PI) + (x + 0.5) * std::log(t) - t +
         std::log(a);
}

double gamma_p(double a, double x) {
  RCR_CHECK_MSG(a > 0.0 && x >= 0.0, "gamma_p domain error");
  if (x == 0.0) return 0.0;
  return x < a + 1.0 ? gamma_p_series(a, x) : 1.0 - gamma_q_cf(a, x);
}

double gamma_q(double a, double x) {
  RCR_CHECK_MSG(a > 0.0 && x >= 0.0, "gamma_q domain error");
  if (x == 0.0) return 1.0;
  return x < a + 1.0 ? 1.0 - gamma_p_series(a, x) : gamma_q_cf(a, x);
}

double beta_inc(double a, double b, double x) {
  RCR_CHECK_MSG(a > 0.0 && b > 0.0, "beta_inc parameters must be > 0");
  RCR_CHECK_MSG(x >= 0.0 && x <= 1.0, "beta_inc x out of [0,1]");
  if (x == 0.0) return 0.0;
  if (x == 1.0) return 1.0;
  const double ln_front = log_gamma(a + b) - log_gamma(a) - log_gamma(b) +
                          a * std::log(x) + b * std::log1p(-x);
  const double front = std::exp(ln_front);
  if (x < (a + 1.0) / (a + b + 2.0)) {
    return front * beta_cf(a, b, x) / a;
  }
  return 1.0 - front * beta_cf(b, a, 1.0 - x) / b;
}

double normal_cdf(double z) { return 0.5 * std::erfc(-z / std::sqrt(2.0)); }

double normal_sf(double z) { return 0.5 * std::erfc(z / std::sqrt(2.0)); }

double normal_quantile(double p) {
  RCR_CHECK_MSG(p > 0.0 && p < 1.0, "normal_quantile requires p in (0,1)");
  // Acklam's approximation.
  static const double a[6] = {-3.969683028665376e+01, 2.209460984245205e+02,
                              -2.759285104469687e+02, 1.383577518672690e+02,
                              -3.066479806614716e+01, 2.506628277459239e+00};
  static const double b[5] = {-5.447609879822406e+01, 1.615858368580409e+02,
                              -1.556989798598866e+02, 6.680131188771972e+01,
                              -1.328068155288572e+01};
  static const double c[6] = {-7.784894002430293e-03, -3.223964580411365e-01,
                              -2.400758277161838e+00, -2.549732539343734e+00,
                              4.374664141464968e+00,  2.938163982698783e+00};
  static const double d[4] = {7.784695709041462e-03, 3.224671290700398e-01,
                              2.445134137142996e+00, 3.754408661907416e+00};
  const double plow = 0.02425;
  double x;
  if (p < plow) {
    const double q = std::sqrt(-2.0 * std::log(p));
    x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  } else if (p <= 1.0 - plow) {
    const double q = p - 0.5;
    const double r = q * q;
    x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) *
        q /
        (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
  } else {
    const double q = std::sqrt(-2.0 * std::log1p(-p));
    x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
          c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  // One Halley refinement step using the exact CDF.
  const double e = normal_cdf(x) - p;
  const double u = e * std::sqrt(2.0 * M_PI) * std::exp(0.5 * x * x);
  x -= u / (1.0 + 0.5 * x * u);
  return x;
}

double chi2_sf(double x, double k) {
  RCR_CHECK_MSG(k > 0.0, "chi2_sf requires positive d.o.f.");
  if (x <= 0.0) return 1.0;
  return gamma_q(0.5 * k, 0.5 * x);
}

double log_choose(double n, double k) {
  RCR_CHECK_MSG(n >= 0.0 && k >= 0.0 && k <= n, "log_choose domain error");
  return log_gamma(n + 1.0) - log_gamma(k + 1.0) - log_gamma(n - k + 1.0);
}

}  // namespace rcr::stats

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <vector>

#include "common/check.h"
#include "common/simd.h"
#include "tensor/ops.h"
#include "test_util.h"

namespace nvm {
namespace {

Tensor naive_matmul(const Tensor& a, const Tensor& b) {
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor c({m, n});
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0;
      for (std::int64_t kk = 0; kk < k; ++kk)
        acc += static_cast<double>(a.at(i, kk)) * b.at(kk, j);
      c.at(i, j) = static_cast<float>(acc);
    }
  return c;
}

TEST(Matmul, MatchesNaive) {
  Rng rng(1);
  for (auto [m, k, n] : {std::tuple{3, 4, 5}, {1, 7, 2}, {8, 8, 8}}) {
    Tensor a = Tensor::normal({m, k}, 0, 1, rng);
    Tensor b = Tensor::normal({k, n}, 0, 1, rng);
    EXPECT_LT(max_abs_diff(matmul(a, b), naive_matmul(a, b)), 1e-4f)
        << m << "x" << k << "x" << n;
  }
}

TEST(Matmul, ShapeMismatchThrows) {
  Tensor a({2, 3});
  Tensor b({4, 2});
  EXPECT_THROW(matmul(a, b), CheckError);
}

TEST(Matvec, MatchesMatmul) {
  Rng rng(2);
  Tensor a = Tensor::normal({5, 7}, 0, 1, rng);
  Tensor x = Tensor::normal({7}, 0, 1, rng);
  Tensor y = matvec(a, x);
  Tensor y2 = matmul(a, x.reshaped({7, 1}));
  EXPECT_LT(max_abs_diff(y, y2.reshaped({5})), 1e-5f);
}

TEST(Transpose, Involution) {
  Rng rng(3);
  Tensor a = Tensor::normal({4, 6}, 0, 1, rng);
  EXPECT_EQ(max_abs_diff(transpose2d(transpose2d(a)), a), 0.0f);
  EXPECT_EQ(transpose2d(a).dim(0), 6);
}

/// Direct (reference) convolution for validating the im2col path.
Tensor naive_conv(const Tensor& x, const Tensor& w, const ConvGeom& g) {
  Tensor y({g.out_c, g.out_h(), g.out_w()});
  for (std::int64_t oc = 0; oc < g.out_c; ++oc)
    for (std::int64_t oy = 0; oy < g.out_h(); ++oy)
      for (std::int64_t ox = 0; ox < g.out_w(); ++ox) {
        double acc = 0;
        for (std::int64_t ic = 0; ic < g.in_c; ++ic)
          for (std::int64_t ky = 0; ky < g.kernel; ++ky)
            for (std::int64_t kx = 0; kx < g.kernel; ++kx) {
              const std::int64_t iy = oy * g.stride + ky - g.pad;
              const std::int64_t ix = ox * g.stride + kx - g.pad;
              if (iy < 0 || iy >= g.in_h || ix < 0 || ix >= g.in_w) continue;
              acc += static_cast<double>(x.at(ic, iy, ix)) *
                     w.at(oc, (ic * g.kernel + ky) * g.kernel + kx);
            }
        y.at(oc, oy, ox) = static_cast<float>(acc);
      }
  return y;
}

struct ConvCase {
  std::int64_t in_c, in_h, in_w, out_c, kernel, stride, pad;
};

class Im2colConv : public ::testing::TestWithParam<ConvCase> {};

TEST_P(Im2colConv, MatchesDirectConvolution) {
  const ConvCase p = GetParam();
  ConvGeom g{p.in_c, p.in_h, p.in_w, p.out_c, p.kernel, p.stride, p.pad};
  Rng rng(7);
  Tensor x = Tensor::normal({g.in_c, g.in_h, g.in_w}, 0, 1, rng);
  Tensor w = Tensor::normal({g.out_c, g.patch_size()}, 0, 1, rng);
  Tensor cols = im2col(x, g);
  Tensor y = matmul(w, cols).reshaped({g.out_c, g.out_h(), g.out_w()});
  EXPECT_LT(max_abs_diff(y, naive_conv(x, w, g)), 1e-4f);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, Im2colConv,
    ::testing::Values(ConvCase{3, 8, 8, 4, 3, 1, 1},
                      ConvCase{2, 7, 9, 3, 3, 2, 1},
                      ConvCase{1, 5, 5, 2, 1, 1, 0},
                      ConvCase{4, 6, 6, 8, 3, 2, 1},
                      ConvCase{3, 12, 12, 8, 3, 1, 1}));

// Property: col2im is the adjoint of im2col —
//   <im2col(x), y> == <x, col2im(y)> for all x, y.
TEST(Im2col, Col2imIsAdjoint) {
  Rng rng(11);
  ConvGeom g{3, 6, 6, 4, 3, 2, 1};
  for (int trial = 0; trial < 10; ++trial) {
    Tensor x = Tensor::normal({g.in_c, g.in_h, g.in_w}, 0, 1, rng);
    Tensor y = Tensor::normal({g.patch_size(), g.out_h() * g.out_w()}, 0, 1, rng);
    const Tensor cx = im2col(x, g);
    const Tensor ay = col2im(y, g);
    double lhs = 0, rhs = 0;
    for (std::int64_t i = 0; i < cx.numel(); ++i) lhs += double(cx[i]) * y[i];
    for (std::int64_t i = 0; i < x.numel(); ++i) rhs += double(x[i]) * ay[i];
    EXPECT_NEAR(lhs, rhs, 1e-3);
  }
}

/// Reference im2col: the scalar loops the kernel layer replaced.
Tensor ref_im2col(const Tensor& input, const ConvGeom& g) {
  const std::int64_t oh = g.out_h(), ow = g.out_w();
  Tensor cols({g.patch_size(), oh * ow});
  const float* in = input.raw();
  float* out = cols.raw();
  const std::int64_t n_cols = oh * ow;
  for (std::int64_t c = 0; c < g.in_c; ++c) {
    for (std::int64_t ky = 0; ky < g.kernel; ++ky) {
      for (std::int64_t kx = 0; kx < g.kernel; ++kx) {
        const std::int64_t row = (c * g.kernel + ky) * g.kernel + kx;
        float* dst = out + row * n_cols;
        for (std::int64_t oy = 0; oy < oh; ++oy) {
          const std::int64_t iy = oy * g.stride + ky - g.pad;
          if (iy < 0 || iy >= g.in_h) {
            for (std::int64_t ox = 0; ox < ow; ++ox) dst[oy * ow + ox] = 0.0f;
            continue;
          }
          const float* src = in + (c * g.in_h + iy) * g.in_w;
          for (std::int64_t ox = 0; ox < ow; ++ox) {
            const std::int64_t ix = ox * g.stride + kx - g.pad;
            dst[oy * ow + ox] = (ix >= 0 && ix < g.in_w) ? src[ix] : 0.0f;
          }
        }
      }
    }
  }
  return cols;
}

/// Reference col2im: the scalar loops the kernel layer replaced, summing
/// each pixel in (c, ky, kx, oy, ox) order.
Tensor ref_col2im(const Tensor& cols, const ConvGeom& g) {
  const std::int64_t oh = g.out_h(), ow = g.out_w();
  Tensor img({g.in_c, g.in_h, g.in_w});
  const float* in = cols.raw();
  float* out = img.raw();
  const std::int64_t n_cols = oh * ow;
  for (std::int64_t c = 0; c < g.in_c; ++c) {
    for (std::int64_t ky = 0; ky < g.kernel; ++ky) {
      for (std::int64_t kx = 0; kx < g.kernel; ++kx) {
        const std::int64_t row = (c * g.kernel + ky) * g.kernel + kx;
        const float* src = in + row * n_cols;
        for (std::int64_t oy = 0; oy < oh; ++oy) {
          const std::int64_t iy = oy * g.stride + ky - g.pad;
          if (iy < 0 || iy >= g.in_h) continue;
          float* dst = out + (c * g.in_h + iy) * g.in_w;
          for (std::int64_t ox = 0; ox < ow; ++ox) {
            const std::int64_t ix = ox * g.stride + kx - g.pad;
            if (ix >= 0 && ix < g.in_w) dst[ix] += src[oy * ow + ox];
          }
        }
      }
    }
  }
  return img;
}

/// Bit equality; with nan_alike any NaN matches any NaN.
bool same_bits(float x, float y, bool nan_alike) {
  if (nan_alike && (std::isnan(x) || std::isnan(y)))
    return std::isnan(x) && std::isnan(y);
  std::uint32_t bx = 0, by = 0;
  std::memcpy(&bx, &x, sizeof bx);
  std::memcpy(&by, &y, sizeof by);
  return bx == by;
}

/// Every conv geometry of the oracle sweep with a non-empty output:
/// kernel {1, 3} x stride {1, 2} x pad {0, 1} x channels {1, 3, 8, 33}
/// over square and non-square images with sides 1..13.
std::vector<ConvGeom> glue_geometries() {
  std::vector<ConvGeom> geoms;
  for (std::int64_t kernel : {1, 3})
    for (std::int64_t stride : {1, 2})
      for (std::int64_t pad : {0, 1})
        for (std::int64_t c : {1, 3, 8, 33})
          for (std::int64_t h = 1; h <= 13; ++h)
            for (std::int64_t w : {h, 14 - h}) {
              const ConvGeom g{c, h, w, 1, kernel, stride, pad};
              if (g.out_h() > 0 && g.out_w() > 0) geoms.push_back(g);
            }
  return geoms;
}

/// im2col is a copy: every tier reproduces the reference bit for bit,
/// NaN payloads, -0 and the +0 padding included.
TEST(ConvGlue, Im2colMatchesReferenceBitForBitOnEveryTier) {
  Rng rng(21);
  const float specials[] = {std::numeric_limits<float>::quiet_NaN(),
                            -std::numeric_limits<float>::infinity(), -0.0f,
                            std::numeric_limits<float>::denorm_min()};
  for (const ConvGeom& g : glue_geometries()) {
    Tensor x = Tensor::normal({g.in_c, g.in_h, g.in_w}, 0, 1, rng);
    for (std::int64_t i = 0; i < x.numel(); i += 5) x[i] = specials[i % 4];
    const Tensor want = ref_im2col(x, g);
    for (simd::Isa isa : testutil::usable_isas()) {
      simd::ScopedIsaForTests scope(isa);
      const Tensor got = im2col(x, g);
      ASSERT_TRUE(got.same_shape(want));
      for (std::int64_t i = 0; i < want.numel(); ++i)
        ASSERT_TRUE(same_bits(got[i], want[i], /*nan_alike=*/false))
            << simd::isa_name(isa) << " c=" << g.in_c << " h=" << g.in_h
            << " w=" << g.in_w << " k=" << g.kernel << " s=" << g.stride
            << " p=" << g.pad << " at " << i;
    }
  }
}

/// col2im keeps each pixel's summation order: terms of +-1e8 and small
/// integers make a reordered sum come out different, and -0 and +-Inf
/// terms check the signed-zero and non-finite cases.
TEST(ConvGlue, Col2imKeepsTheReferenceSummationOrderOnEveryTier) {
  Rng rng(22);
  const float terms[] = {1e8f,  -1e8f, 1.0f, -1.0f, 3.0f,
                         -0.0f, 1e8f,  2.0f, -1e8f, 0.5f};
  const float inf = std::numeric_limits<float>::infinity();
  for (const ConvGeom& g : glue_geometries()) {
    Tensor cols({g.patch_size(), g.out_h() * g.out_w()});
    for (std::int64_t i = 0; i < cols.numel(); ++i)
      cols[i] = terms[rng.uniform_index(std::size(terms))];
    if (cols.numel() > 40) {
      cols[17] = inf;
      cols[cols.numel() - 3] = -inf;
    }
    const Tensor want = ref_col2im(cols, g);
    for (simd::Isa isa : testutil::usable_isas()) {
      simd::ScopedIsaForTests scope(isa);
      const Tensor got = col2im(cols, g);
      ASSERT_TRUE(got.same_shape(want));
      for (std::int64_t i = 0; i < want.numel(); ++i)
        ASSERT_TRUE(same_bits(got[i], want[i], /*nan_alike=*/true))
            << simd::isa_name(isa) << " c=" << g.in_c << " h=" << g.in_h
            << " w=" << g.in_w << " k=" << g.kernel << " s=" << g.stride
            << " p=" << g.pad << " at " << i << " got " << got[i]
            << " want " << want[i];
    }
  }
}

TEST(PadImage, PlacesAndZeroFills) {
  Tensor img({1, 2, 2}, {1, 2, 3, 4});
  Tensor out = pad_image(img, 1, 2, 4, 5);
  EXPECT_EQ(out.at(0, 1, 2), 1.0f);
  EXPECT_EQ(out.at(0, 2, 3), 4.0f);
  EXPECT_EQ(out.at(0, 0, 0), 0.0f);
  EXPECT_EQ(out.sum(), 10.0f);
  EXPECT_THROW(pad_image(img, 3, 0, 4, 5), CheckError);
}

TEST(ResizeNearest, IdentityAndUpscale) {
  Tensor img({1, 2, 2}, {1, 2, 3, 4});
  EXPECT_EQ(max_abs_diff(resize_nearest(img, 2, 2), img), 0.0f);
  Tensor up = resize_nearest(img, 4, 4);
  EXPECT_EQ(up.at(0, 0, 0), 1.0f);
  EXPECT_EQ(up.at(0, 0, 3), 2.0f);
  EXPECT_EQ(up.at(0, 3, 3), 4.0f);
}

TEST(ConvGeom, OutputDims) {
  ConvGeom g{3, 12, 12, 8, 3, 2, 1};
  EXPECT_EQ(g.out_h(), 6);
  EXPECT_EQ(g.out_w(), 6);
  EXPECT_EQ(g.patch_size(), 27);
}

}  // namespace
}  // namespace nvm

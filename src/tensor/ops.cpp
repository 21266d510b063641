#include "tensor/ops.h"

#include "common/check.h"
#include "common/simd.h"

namespace nvm {

Tensor matmul(const Tensor& a, const Tensor& b) {
  NVM_CHECK_EQ(a.rank(), 2u);
  NVM_CHECK_EQ(b.rank(), 2u);
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  NVM_CHECK_EQ(k, b.dim(0));
  Tensor c({m, n});
  simd::gemm_accum(c.raw(), a.raw(), b.raw(), m, n, k, k, n, n);
  return c;
}

Tensor matmul_at(const Tensor& a, const Tensor& b) {
  NVM_CHECK_EQ(a.rank(), 2u);
  NVM_CHECK_EQ(b.rank(), 2u);
  const std::int64_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  NVM_CHECK_EQ(k, b.dim(0));
  Tensor c({m, n});
  simd::gemm_at_accum(c.raw(), a.raw(), b.raw(), m, n, k, m, n, n);
  return c;
}

Tensor matmul_bt(const Tensor& a, const Tensor& b) {
  NVM_CHECK_EQ(a.rank(), 2u);
  NVM_CHECK_EQ(b.rank(), 2u);
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  NVM_CHECK_EQ(k, b.dim(1));
  Tensor c({m, n});
  simd::gemm_bt_accum(c.raw(), a.raw(), b.raw(), m, n, k, k, k, n);
  return c;
}

Tensor matvec(const Tensor& a, const Tensor& x) {
  NVM_CHECK_EQ(a.rank(), 2u);
  NVM_CHECK_EQ(x.rank(), 1u);
  const std::int64_t m = a.dim(0), k = a.dim(1);
  NVM_CHECK_EQ(k, x.dim(0));
  Tensor y({m});
  simd::gemm_f64acc(y.raw(), a.raw(), x.raw(), m, 1, k, k, 1, 1);
  return y;
}

Tensor transpose2d(const Tensor& a) {
  NVM_CHECK_EQ(a.rank(), 2u);
  const std::int64_t m = a.dim(0), n = a.dim(1);
  Tensor t({n, m});
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = 0; j < n; ++j) t.at(j, i) = a.at(i, j);
  return t;
}

namespace {

simd::ConvShape image_shape(const ConvGeom& g) {
  return {g.in_c, g.in_h, g.in_w, g.kernel, g.stride, g.pad};
}

}  // namespace

Tensor im2col(const Tensor& input, const ConvGeom& g) {
  NVM_CHECK_EQ(input.rank(), 3u);
  NVM_CHECK_EQ(input.dim(0), g.in_c);
  NVM_CHECK_EQ(input.dim(1), g.in_h);
  NVM_CHECK_EQ(input.dim(2), g.in_w);
  const std::int64_t oh = g.out_h(), ow = g.out_w();
  NVM_CHECK(oh > 0 && ow > 0, "conv output empty");
  Tensor cols({g.patch_size(), oh * ow});
  simd::im2col(cols.raw(), input.raw(), image_shape(g));
  return cols;
}

Tensor col2im(const Tensor& cols, const ConvGeom& g) {
  NVM_CHECK_EQ(cols.rank(), 2u);
  const std::int64_t oh = g.out_h(), ow = g.out_w();
  NVM_CHECK_EQ(cols.dim(0), g.patch_size());
  NVM_CHECK_EQ(cols.dim(1), oh * ow);
  Tensor img({g.in_c, g.in_h, g.in_w});
  simd::col2im(img.raw(), cols.raw(), image_shape(g));
  return img;
}

Tensor pad_image(const Tensor& img, std::int64_t top, std::int64_t left,
                 std::int64_t out_h, std::int64_t out_w) {
  NVM_CHECK_EQ(img.rank(), 3u);
  const std::int64_t c = img.dim(0), h = img.dim(1), w = img.dim(2);
  NVM_CHECK(top >= 0 && left >= 0 && top + h <= out_h && left + w <= out_w,
            "pad out of range");
  Tensor out({c, out_h, out_w});
  for (std::int64_t ch = 0; ch < c; ++ch)
    for (std::int64_t y = 0; y < h; ++y)
      for (std::int64_t x = 0; x < w; ++x)
        out.at(ch, top + y, left + x) = img.at(ch, y, x);
  return out;
}

Tensor resize_nearest(const Tensor& img, std::int64_t out_h,
                      std::int64_t out_w) {
  NVM_CHECK_EQ(img.rank(), 3u);
  NVM_CHECK(out_h > 0 && out_w > 0);
  const std::int64_t c = img.dim(0), h = img.dim(1), w = img.dim(2);
  Tensor out({c, out_h, out_w});
  for (std::int64_t ch = 0; ch < c; ++ch) {
    for (std::int64_t y = 0; y < out_h; ++y) {
      std::int64_t sy = y * h / out_h;
      for (std::int64_t x = 0; x < out_w; ++x) {
        std::int64_t sx = x * w / out_w;
        out.at(ch, y, x) = img.at(ch, sy, sx);
      }
    }
  }
  return out;
}

}  // namespace nvm

#include "kernels/formats_device.hpp"

namespace spaden::kern {

DeviceCsr DeviceCsr::upload(sim::DeviceMemory& mem, const mat::Csr& a) {
  DeviceCsr d;
  d.row_ptr = mem.upload(a.row_ptr, "csr.row_ptr");
  d.col_idx = mem.upload(a.col_idx, "csr.col_idx");
  d.val = mem.upload(a.val, "csr.val");
  return d;
}

void DeviceCsr::add_footprint(Footprint& fp) const {
  fp.add("csr.row_ptr", row_ptr.bytes());
  fp.add("csr.col_idx", col_idx.bytes());
  fp.add("csr.val", val.bytes());
}

DeviceCoo DeviceCoo::upload(sim::DeviceMemory& mem, const mat::Coo& a) {
  DeviceCoo d;
  d.row = mem.upload(a.row, "coo.row");
  d.col = mem.upload(a.col, "coo.col");
  d.val = mem.upload(a.val, "coo.val");
  return d;
}

void DeviceCoo::add_footprint(Footprint& fp) const {
  fp.add("coo.row", row.bytes());
  fp.add("coo.col", col.bytes());
  fp.add("coo.val", val.bytes());
}

DeviceBsr DeviceBsr::upload(sim::DeviceMemory& mem, const mat::Bsr& a) {
  DeviceBsr d;
  d.block_dim = a.block_dim;
  d.brows = a.brows;
  d.block_row_ptr = mem.upload(a.block_row_ptr, "bsr.block_row_ptr");
  d.block_col = mem.upload(a.block_col, "bsr.block_col");
  d.val = mem.upload(a.val, "bsr.val");
  return d;
}

void DeviceBsr::add_footprint(Footprint& fp) const {
  fp.add("bsr.block_row_ptr", block_row_ptr.bytes());
  fp.add("bsr.block_col", block_col.bytes());
  fp.add("bsr.val", val.bytes());
}

DeviceBitBsr DeviceBitBsr::upload(sim::DeviceMemory& mem, const mat::BitBsr& a) {
  DeviceBitBsr d;
  d.brows = a.brows;
  d.block_row_ptr = mem.upload(a.block_row_ptr, "bitbsr.block_row_ptr");
  d.block_col = mem.upload(a.block_col, "bitbsr.block_col");
  d.bitmap = mem.upload(a.bitmap, "bitbsr.bitmap");
  d.val_offset = mem.upload(a.val_offset, "bitbsr.val_offset");
  d.values = mem.upload(a.values, "bitbsr.values");
  return d;
}

void DeviceBitBsr::add_footprint(Footprint& fp) const {
  fp.add("bitbsr.block_row_ptr", block_row_ptr.bytes());
  fp.add("bitbsr.block_col", block_col.bytes());
  fp.add("bitbsr.bitmap", bitmap.bytes());
  fp.add("bitbsr.val_offset", val_offset.bytes());
  fp.add("bitbsr.values", values.bytes());
}

san::FormatReport DeviceCsr::check(mat::Index nrows, mat::Index ncols) const {
  return san::check_csr(nrows, ncols, row_ptr.host(), col_idx.host(), val.host().size());
}

san::FormatReport DeviceCoo::check(mat::Index nrows, mat::Index ncols) const {
  return san::check_coo(nrows, ncols, row.host(), col.host(), val.host().size(),
                        /*require_canonical=*/true);
}

san::FormatReport DeviceBsr::check(mat::Index nrows, mat::Index ncols) const {
  return san::check_bsr(nrows, ncols, block_dim, block_row_ptr.host(), block_col.host(),
                        val.host());
}

san::FormatReport DeviceBitBsr::check(mat::Index nrows, mat::Index ncols) const {
  return san::check_bitbsr(nrows, ncols, block_row_ptr.host(), block_col.host(),
                           bitmap.host(), val_offset.host(), values.host());
}

}  // namespace spaden::kern

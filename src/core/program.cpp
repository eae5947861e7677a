#include "src/core/program.h"

#include <stdexcept>

namespace smd::core {
namespace {

/// Upload a vector<double> to freshly allocated memory; returns the base.
std::uint64_t upload(mem::GlobalMemory& mem, const std::vector<double>& data) {
  const std::uint64_t base = mem.alloc(static_cast<std::int64_t>(data.size()));
  mem.write_block(base, data);
  return base;
}

std::uint64_t upload_indices(mem::GlobalMemory& mem,
                             const std::vector<std::uint64_t>& idx) {
  std::vector<double> as_words(idx.size());
  for (std::size_t i = 0; i < idx.size(); ++i) as_words[i] = static_cast<double>(idx[i]);
  return upload(mem, as_words);
}

/// Add a strided load of an index-array slice (the index stream the AGs
/// will consume; its memory traffic is real even though our MemOpDesc
/// carries the resolved indices by value).
void load_index_stream(sim::StreamProgram& prog, std::uint64_t base,
                       std::int64_t begin, std::int64_t end) {
  mem::MemOpDesc d;
  d.kind = mem::MemOpKind::kLoadStrided;
  d.base = base + static_cast<std::uint64_t>(begin);
  d.n_records = end - begin;
  d.record_words = 1;
  const sim::StreamId s = prog.new_stream(end - begin);
  prog.load(std::move(d), s);
}

mem::MemOpDesc gather_desc(std::uint64_t pos_base, int record_words,
                           const std::vector<std::uint64_t>& idx,
                           std::int64_t begin, std::int64_t end) {
  mem::MemOpDesc d;
  d.kind = mem::MemOpKind::kLoadGather;
  d.base = pos_base;
  d.n_records = end - begin;
  d.record_words = record_words;
  d.indices.assign(idx.begin() + static_cast<std::ptrdiff_t>(begin),
                   idx.begin() + static_cast<std::ptrdiff_t>(end));
  return d;
}

mem::MemOpDesc scatter_add_desc(std::uint64_t force_base, int record_words,
                                const std::vector<std::uint64_t>& idx,
                                std::int64_t begin, std::int64_t end) {
  mem::MemOpDesc d;
  d.kind = mem::MemOpKind::kScatterAdd;
  d.base = force_base;
  d.n_records = end - begin;
  d.record_words = record_words;
  d.indices.assign(idx.begin() + static_cast<std::ptrdiff_t>(begin),
                   idx.begin() + static_cast<std::ptrdiff_t>(end));
  return d;
}

}  // namespace

ProblemImage upload_system(mem::GlobalMemory& mem, const md::WaterSystem& sys) {
  ProblemImage image;
  image.n_molecules = sys.n_molecules();
  const int n = sys.n_molecules();

  std::vector<double> pos(static_cast<std::size_t>((n + 2) * kPosWords));
  for (int m = 0; m < n; ++m) {
    for (int s = 0; s < 3; ++s) {
      const md::Vec3& p = sys.pos(m, s);
      const std::size_t off = static_cast<std::size_t>(m * kPosWords + 3 * s);
      pos[off + 0] = p.x;
      pos[off + 1] = p.y;
      pos[off + 2] = p.z;
    }
  }
  // Dummy neighbor record (n) and dummy central record (n+1), far from the
  // box and from each other.
  for (int s = 0; s < 3; ++s) {
    const std::size_t nb = static_cast<std::size_t>(n * kPosWords + 3 * s);
    pos[nb + 0] = 1.0e6;
    pos[nb + 1] = 1.0e6 + 0.1 * s;
    pos[nb + 2] = 1.0e6;
    const std::size_t ct = static_cast<std::size_t>((n + 1) * kPosWords + 3 * s);
    pos[ct + 0] = -1.0e6;
    pos[ct + 1] = 0.1 * s;
    pos[ct + 2] = 2.0e6;
  }
  image.pos_base = upload(mem, pos);
  image.force_base = mem.alloc(static_cast<std::int64_t>((n + 1) * kForceWords));
  return image;
}

sim::StreamProgram build_program(mem::GlobalMemory& mem,
                                 const ProblemImage& image,
                                 const VariantLayout& layout,
                                 const kernel::KernelDef& kernel_def,
                                 std::uint64_t energy_base) {
  sim::StreamProgram prog;
  if (energy_base != 0 && layout.variant != Variant::kExpanded) {
    throw std::runtime_error("energy output only wired for expanded layouts");
  }

  // ---- Upload the scalar-side arrays. ------------------------------------
  const std::uint64_t i_n_base = upload_indices(mem, layout.neighbor_gather_idx);
  const std::uint64_t i_fc_base = upload_indices(mem, layout.force_c_scatter_idx);
  std::uint64_t i_c_base = 0, i_fn_base = 0, pbc_base = 0, central_base = 0;
  if (!layout.central_gather_idx.empty()) {
    i_c_base = upload_indices(mem, layout.central_gather_idx);
  }
  if (!layout.force_n_scatter_idx.empty()) {
    i_fn_base = upload_indices(mem, layout.force_n_scatter_idx);
  }
  if (!layout.pbc_records.empty()) pbc_base = upload(mem, layout.pbc_records);
  if (!layout.central_records.empty()) {
    central_base = upload(mem, layout.central_records);
  }

  const bool expanded = layout.variant == Variant::kExpanded;
  const bool has_fn = !layout.force_n_scatter_idx.empty();

  // ---- One gather/kernel/scatter group per strip (Figure 5). -------------
  for (const StripSlice& s : layout.strips) {
    const std::int64_t n_nbr = s.neighbor_end - s.neighbor_begin;
    const std::int64_t n_ctr = s.central_end - s.central_begin;
    const std::int64_t n_fc = s.fc_end - s.fc_begin;

    // Index streams consumed by the address generators.
    load_index_stream(prog, i_n_base, s.neighbor_begin, s.neighbor_end);
    if (expanded) load_index_stream(prog, i_c_base, s.central_begin, s.central_end);
    if (has_fn) load_index_stream(prog, i_fn_base, s.neighbor_begin, s.neighbor_end);
    load_index_stream(prog, i_fc_base, s.fc_begin, s.fc_end);

    // Central input: gathered (expanded) or materialized records.
    const sim::StreamId st_central =
        prog.new_stream(n_ctr * (expanded ? kPosWords : layout.central_record_words));
    if (expanded) {
      prog.load(gather_desc(image.pos_base, kPosWords, layout.central_gather_idx,
                            s.central_begin, s.central_end),
                st_central);
    } else {
      mem::MemOpDesc d;
      d.kind = mem::MemOpKind::kLoadStrided;
      d.base = central_base + static_cast<std::uint64_t>(
                                  s.central_begin * layout.central_record_words);
      d.n_records = n_ctr;
      d.record_words = layout.central_record_words;
      prog.load(std::move(d), st_central);
    }

    // Neighbor positions: gathered from the shared array.
    const sim::StreamId st_npos = prog.new_stream(n_nbr * kPosWords);
    prog.load(gather_desc(image.pos_base, kPosWords, layout.neighbor_gather_idx,
                          s.neighbor_begin, s.neighbor_end),
              st_npos);

    sim::StreamId st_pbc = -1;
    if (expanded) {
      st_pbc = prog.new_stream(n_nbr * kPbcWords);
      mem::MemOpDesc d;
      d.kind = mem::MemOpKind::kLoadStrided;
      d.base = pbc_base + static_cast<std::uint64_t>(s.neighbor_begin * kPbcWords);
      d.n_records = n_nbr;
      d.record_words = kPbcWords;
      prog.load(std::move(d), st_pbc);
    }

    // Kernel outputs.
    const sim::StreamId st_fc = prog.new_stream(n_fc * kForceWords);
    sim::StreamId st_fn = -1;
    if (has_fn) st_fn = prog.new_stream(n_nbr * kForceWords);

    sim::StreamId st_energy = -1;
    if (energy_base != 0) st_energy = prog.new_stream(n_nbr * 2);

    // Bindings must match the kernel's stream declaration order.
    std::vector<sim::StreamId> bindings;
    switch (layout.variant) {
      case Variant::kExpanded:
        bindings = {st_central, st_npos, st_pbc, st_fc, st_fn};
        if (st_energy >= 0) bindings.push_back(st_energy);
        break;
      case Variant::kFixed:
      case Variant::kVariable:
        bindings = {st_central, st_npos, st_fn, st_fc};
        break;
      case Variant::kDuplicated:
        bindings = {st_central, st_npos, st_fc};
        break;
    }
    prog.kernel(&kernel_def, std::move(bindings), s.round_end - s.round_begin);

    // Partial-force reduction via the scatter-add units.
    if (has_fn) {
      prog.store(scatter_add_desc(image.force_base, kForceWords,
                                  layout.force_n_scatter_idx, s.neighbor_begin,
                                  s.neighbor_end),
                 st_fn);
    }
    prog.store(scatter_add_desc(image.force_base, kForceWords,
                                layout.force_c_scatter_idx, s.fc_begin, s.fc_end),
               st_fc);
    if (st_energy >= 0) {
      mem::MemOpDesc d;
      d.kind = mem::MemOpKind::kStoreStrided;
      d.base = energy_base + static_cast<std::uint64_t>(2 * s.neighbor_begin);
      d.n_records = n_nbr;
      d.record_words = 2;
      prog.store(std::move(d), st_energy);
    }
  }
  return prog;
}

std::vector<md::Vec3> read_forces(const mem::GlobalMemory& mem,
                                  const ProblemImage& image) {
  std::vector<md::Vec3> forces(static_cast<std::size_t>(3 * image.n_molecules));
  for (int m = 0; m < image.n_molecules; ++m) {
    for (int s = 0; s < 3; ++s) {
      const std::uint64_t base =
          image.force_base + static_cast<std::uint64_t>(m * kForceWords + 3 * s);
      forces[static_cast<std::size_t>(3 * m + s)] = {
          mem.read(base), mem.read(base + 1), mem.read(base + 2)};
    }
  }
  return forces;
}

}  // namespace smd::core

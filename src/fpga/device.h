// FPGA device descriptions (resource inventories).
//
// The paper deploys on an AMD/Xilinx Alveo U250 (Table III) and sizes the
// memory system against a ZCU104's ~36 Mb of on-chip RAM (Sec. IV-C). The
// inventories below are from the vendor datasheets.
#pragma once

#include <cstdint>
#include <string>

namespace nsflow {

struct FpgaDevice {
  std::string name;
  std::int64_t dsp = 0;           // DSP48E2 slices.
  std::int64_t lut = 0;           // 6-input LUTs.
  std::int64_t ff = 0;            // Flip-flops.
  std::int64_t bram18 = 0;        // 18 Kb block-RAM units.
  std::int64_t uram = 0;          // 288 Kb UltraRAM blocks.
  std::int64_t lutram_luts = 0;   // LUTs usable as distributed RAM.
  double max_clock_hz = 0.0;      // Fabric clock ceiling for this family.

  double BramBytes() const { return static_cast<double>(bram18) * 18.0 * 1024.0 / 8.0; }
};

/// Alveo U250 (xcu250-figd2104-2L-e).
FpgaDevice U250();

/// Zynq UltraScale+ ZCU104 (xczu7ev).
FpgaDevice Zcu104();

/// Look up a device by CLI name: "u250" | "zcu104". Throws on anything
/// else, listing the known names (the `nsflow plan --budget` resolver).
FpgaDevice DeviceByName(const std::string& name);

}  // namespace nsflow

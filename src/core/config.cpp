#include "core/config.hpp"

namespace kappa {

const char* preset_name(Preset preset) {
  switch (preset) {
    case Preset::kMinimal:
      return "minimal";
    case Preset::kFast:
      return "fast";
    case Preset::kStrong:
      return "strong";
  }
  return "?";
}

Config Config::preset(Preset preset, BlockID k, double eps) {
  Config config;
  config.k = k;
  config.eps = eps;
  switch (preset) {
    case Preset::kMinimal:
      config.init_repeats = 1;
      config.bfs_depth = 1;
      config.max_global_iterations = 1;
      config.local_iterations = 1;
      config.fm_alpha = 0.01;
      config.stop_no_change = 1;
      config.duplicate_search = false;  // smallest possible everything
      break;
    case Preset::kFast:
      config.init_repeats = 3;
      config.bfs_depth = 5;
      config.max_global_iterations = 15;
      config.local_iterations = 3;
      config.fm_alpha = 0.05;
      config.stop_no_change = 1;
      break;
    case Preset::kStrong:
      config.init_repeats = 5;
      config.bfs_depth = 20;
      config.max_global_iterations = 15;
      config.local_iterations = 5;
      config.fm_alpha = 0.20;
      config.stop_no_change = 2;
      break;
  }
  return config;
}

Config Config::walshaw(BlockID k, double eps, EdgeRating rating) {
  Config config = preset(Preset::kStrong, k, eps);
  config.rating = rating;
  config.bfs_depth = 20;
  config.fm_alpha = 0.30;
  return config;
}

}  // namespace kappa

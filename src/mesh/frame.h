// Coordinate frames implementing the paper's normalization: "without loss of
// generality assume xs = ys = 0 and xd, yd >= 0 ... for the remaining
// situation, the results can be obtained by simply rotating the mesh".
//
// A Frame maps world mesh coordinates to a local frame in which the routing
// progress directions are +X/+Y. It composes independent x/y reflections
// (chosen from the quadrant of d relative to s) with an optional transpose.
// The transpose reuses all type-I machinery (sequences blocking +Y) for the
// type-II analyses (sequences blocking +X).
#pragma once

#include <cstdint>

#include "mesh/direction.h"
#include "mesh/mesh.h"
#include "mesh/point.h"

namespace meshrt {

/// Position of the destination relative to the source; ties resolve toward
/// NE so a frame is always defined (degenerate straight-line routes use the
/// containing quadrant's frame).
enum class Quadrant : std::uint8_t { NE = 0, NW = 1, SE = 2, SW = 3 };

constexpr Quadrant quadrantOf(Point s, Point d) {
  const bool west = d.x < s.x;
  const bool south = d.y < s.y;
  if (west && south) return Quadrant::SW;
  if (west) return Quadrant::NW;
  if (south) return Quadrant::SE;
  return Quadrant::NE;
}

class Frame {
 public:
  /// Identity frame for a mesh (NE quadrant, no transpose).
  explicit Frame(const Mesh2D& mesh)
      : Frame(mesh.width(), mesh.height(), false, false, false) {}

  Frame(Coord width, Coord height, bool flipX, bool flipY, bool transposed)
      : width_(width),
        height_(height),
        flipX_(flipX),
        flipY_(flipY),
        transposed_(transposed) {}

  /// Frame in which routing s -> d progresses in +X/+Y.
  static Frame forQuadrant(const Mesh2D& mesh, Quadrant q,
                           bool transposed = false) {
    const bool flipX = (q == Quadrant::NW || q == Quadrant::SW);
    const bool flipY = (q == Quadrant::SE || q == Quadrant::SW);
    return Frame(mesh.width(), mesh.height(), flipX, flipY, transposed);
  }

  static Frame forPair(const Mesh2D& mesh, Point s, Point d,
                       bool transposed = false) {
    return forQuadrant(mesh, quadrantOf(s, d), transposed);
  }

  bool transposed() const { return transposed_; }
  bool flipX() const { return flipX_; }
  bool flipY() const { return flipY_; }

  Coord localWidth() const { return transposed_ ? height_ : width_; }
  Coord localHeight() const { return transposed_ ? width_ : height_; }

  /// The local-frame mesh (dimensions swap under transpose).
  Mesh2D localMesh() const { return Mesh2D(localWidth(), localHeight()); }

  Point toLocal(Point world) const {
    Point p{flipX_ ? width_ - 1 - world.x : world.x,
            flipY_ ? height_ - 1 - world.y : world.y};
    if (transposed_) p = Point{p.y, p.x};
    return p;
  }

  Point toWorld(Point local) const {
    Point p = transposed_ ? Point{local.y, local.x} : local;
    return {flipX_ ? width_ - 1 - p.x : p.x,
            flipY_ ? height_ - 1 - p.y : p.y};
  }

  Dir toLocal(Dir world) const {
    Dir d = world;
    if (flipX_ && (d == Dir::PlusX || d == Dir::MinusX)) d = opposite(d);
    if (flipY_ && (d == Dir::PlusY || d == Dir::MinusY)) d = opposite(d);
    if (transposed_) d = swapAxes(d);
    return d;
  }

  Dir toWorld(Dir local) const {
    Dir d = transposed_ ? swapAxes(local) : local;
    if (flipX_ && (d == Dir::PlusX || d == Dir::MinusX)) d = opposite(d);
    if (flipY_ && (d == Dir::PlusY || d == Dir::MinusY)) d = opposite(d);
    return d;
  }

  friend bool operator==(const Frame& a, const Frame& b) = default;

 private:
  static constexpr Dir swapAxes(Dir d) {
    switch (d) {
      case Dir::PlusX:
        return Dir::PlusY;
      case Dir::PlusY:
        return Dir::PlusX;
      case Dir::MinusX:
        return Dir::MinusY;
      case Dir::MinusY:
        return Dir::MinusX;
    }
    return d;
  }

  Coord width_;
  Coord height_;
  bool flipX_;
  bool flipY_;
  bool transposed_;
};

}  // namespace meshrt

package repro.nn

/** Minimal dense row-major matrix used by the from-scratch autodiff engine.
  *
  * All model math in this repo (GeniePath, VGAE, CompGCN, PaGNN, ALPC heads,
  * the ensemble attention encoder) runs on these — sizes are small (thousands
  * of rows, dims ≤ 64) so plain JVM double arrays are plenty.
  *
  * Mutating ops are suffixed `InPlace` and only used by the autodiff tape and
  * the optimizer; everything else is out-of-place.
  */
final class Tensor(val rows: Int, val cols: Int, val data: Array[Double]) {
  require(data.length == rows * cols, s"bad shape ${rows}x$cols for ${data.length} values")

  def apply(r: Int, c: Int): Double = data(r * cols + c)
  def update(r: Int, c: Int, v: Double): Unit = data(r * cols + c) = v

  def copy(): Tensor = new Tensor(rows, cols, data.clone())

  /** Matrix product `this * other`. */
  def mm(other: Tensor): Tensor = {
    require(cols == other.rows, s"mm shape mismatch ${rows}x$cols * ${other.rows}x${other.cols}")
    val out = new Array[Double](rows * other.cols)
    val oc = other.cols
    var i = 0
    while (i < rows) {
      var k = 0
      while (k < cols) {
        val a = data(i * cols + k)
        if (a != 0.0) {
          val rowOff = k * oc
          val outOff = i * oc
          var j = 0
          while (j < oc) { out(outOff + j) += a * other.data(rowOff + j); j += 1 }
        }
        k += 1
      }
      i += 1
    }
    new Tensor(rows, oc, out)
  }

  def t: Tensor = {
    val out = new Array[Double](rows * cols)
    var r = 0
    while (r < rows) { var c = 0; while (c < cols) { out(c * rows + r) = data(r * cols + c); c += 1 }; r += 1 }
    new Tensor(cols, rows, out)
  }

  def map(f: Double => Double): Tensor = {
    val out = new Array[Double](data.length)
    var i = 0; while (i < data.length) { out(i) = f(data(i)); i += 1 }
    new Tensor(rows, cols, out)
  }

  def zip(other: Tensor)(f: (Double, Double) => Double): Tensor = {
    require(rows == other.rows && cols == other.cols, "zip shape mismatch")
    val out = new Array[Double](data.length)
    var i = 0; while (i < data.length) { out(i) = f(data(i), other.data(i)); i += 1 }
    new Tensor(rows, cols, out)
  }

  def +(o: Tensor): Tensor = zip(o)(_ + _)
  def -(o: Tensor): Tensor = zip(o)(_ - _)
  def *:(s: Double): Tensor = map(_ * s)
  def hadamard(o: Tensor): Tensor = zip(o)(_ * _)

  /** Adds a 1×cols row vector to every row. */
  def addRow(bias: Tensor): Tensor = {
    require(bias.rows == 1 && bias.cols == cols, "addRow shape mismatch")
    val out = new Array[Double](data.length)
    var r = 0
    while (r < rows) {
      var c = 0
      while (c < cols) { out(r * cols + c) = data(r * cols + c) + bias.data(c); c += 1 }
      r += 1
    }
    new Tensor(rows, cols, out)
  }

  def addInPlace(o: Tensor): Unit = {
    require(rows == o.rows && cols == o.cols, s"addInPlace mismatch ${rows}x$cols vs ${o.rows}x${o.cols}")
    var i = 0; while (i < data.length) { data(i) += o.data(i); i += 1 }
  }

  def scaleInPlace(s: Double): Unit = { var i = 0; while (i < data.length) { data(i) *= s; i += 1 } }
  def zeroInPlace(): Unit = java.util.Arrays.fill(data, 0.0)

  def sum: Double = { var s = 0.0; var i = 0; while (i < data.length) { s += data(i); i += 1 }; s }
  def sumSquares: Double = { var s = 0.0; var i = 0; while (i < data.length) { s += data(i) * data(i); i += 1 }; s }

  /** The first `n` rows. */
  def takeRows(n: Int): Tensor = new Tensor(n, cols, java.util.Arrays.copyOf(data, n * cols))

  def row(r: Int): Array[Double] = java.util.Arrays.copyOfRange(data, r * cols, (r + 1) * cols)

  def frobenius: Double = math.sqrt(sumSquares)

  override def toString: String =
    s"Tensor(${rows}x$cols)[${data.take(6).map(d => f"$d%.4f").mkString(",")}${if (data.length > 6) ",…" else ""}]"
}

object Tensor {
  def zeros(rows: Int, cols: Int): Tensor = new Tensor(rows, cols, new Array[Double](rows * cols))
  def ones(rows: Int, cols: Int): Tensor = fill(rows, cols, 1.0)
  def fill(rows: Int, cols: Int, v: Double): Tensor = {
    val a = new Array[Double](rows * cols); java.util.Arrays.fill(a, v); new Tensor(rows, cols, a)
  }

  /** Xavier/Glorot uniform init, deterministic in the seed. */
  def glorot(rows: Int, cols: Int, rng: scala.util.Random): Tensor = {
    val limit = math.sqrt(6.0 / (rows + cols))
    val a = new Array[Double](rows * cols)
    var i = 0; while (i < a.length) { a(i) = (rng.nextDouble() * 2 - 1) * limit; i += 1 }
    new Tensor(rows, cols, a)
  }

  def fromRows(rows: Seq[Array[Double]]): Tensor = {
    require(rows.nonEmpty, "fromRows: empty")
    val cols = rows.head.length
    val out = new Array[Double](rows.length * cols)
    var r = 0
    rows.foreach { arr => require(arr.length == cols); System.arraycopy(arr, 0, out, r * cols, cols); r += 1 }
    new Tensor(rows.length, cols, out)
  }

  def rowVec(values: Array[Double]): Tensor = new Tensor(1, values.length, values.clone())
  def colVec(values: Array[Double]): Tensor = new Tensor(values.length, 1, values.clone())
}


program trfd
  input integer :: norb = 20, passes = 6
  integer :: i, j, t, off, base
  real :: xrsq(300), y(40), val(40)
  real :: trace
  do i = 1, norb * (norb + 1) / 2
    xrsq(i) = real(i) * 0.01
  end do
  do i = 1, norb * 2
    y(i) = 0.0
    val(i) = real(i) * 0.1
  end do
  do t = 1, passes
    do i = 1, norb
      off = (i * (i - 1)) / 2
      do j = 1, i
        xrsq(off + j) = xrsq(off + j) * 0.99 + val(j) * 0.001 &
                        + xrsq(off + j) * val(j) * 0.0001
        if (mod(j, 2) == 0) then
          base = norb + 2
          y(base) = y(base) + xrsq(off + j) * 0.00001
        end if
      end do
      val(i) = val(i) * 0.999 + y(i) * 0.001 + val(i) * 0.0001
    end do
  end do
  trace = 0.0
  do i = 1, norb
    trace = trace + xrsq((i * (i + 1)) / 2)
  end do
  print trace + y(norb + 2)
end program
